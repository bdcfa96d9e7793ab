"""Closed-form radial Green functions for the four equation variants.

Each variant j has a free line kernel G_j(chi, r) whose real part carries a
hyperbolic-ratio factor and whose imaginary part is -cos(chi m r) / K_j on
the scattering branch:

    j=1:  [coth(pi m r / 2) sin(chi m r) - i cos(chi m r)] / K_1
    j=2:  as j=4 plus the extra real term 1 / (4 m cosh(chi) cosh(pi m r / 2))
    j=3:  [tanh(pi m r / 2) sin(chi m r) - i cos(chi m r)] / K_3
    j=4:  [coth(pi m r)     sin(chi m r) - i cos(chi m r)] / K_4

with K_1 = K_2 = m sinh(2 chi) and K_3 = K_4 = 2 m sinh(chi).  All kernels
are even in r and have removable singularities at r = 0, handled here by a
series branch so that evaluation is smooth through the origin.

The half-line (partial-wave) kernel follows by the method of images,
G(chi, r, r') = G(chi, r - r') - G(chi, r + r'), which vanishes at r = 0 and
obeys the unitarity identity Im G_j(chi, a, b) = -2 sin(chi m a) sin(chi m b)
/ K_j.

On the bound branch chi = i w (0 < w < pi/2) the kernels are real, negative
ratios of hyperbolic functions, evaluated in exponential form for large
arguments so no overflow occurs.

green_spectral_oracle recomputes the bound-branch line kernel from its
rapidity-space spectral integral with adaptive quadrature.  It shares no
code path with the closed forms above and exists purely as an independent
cross-check.

green_partial_real evaluates Re G_j(chi, r, r') on numpy arrays for drivers
that need the real part over many points at once.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, ThresholdError, UnsupportedBranchError
from .kinematics import BoundEnergy, EquationVariant, Kinematics, k_factor, k_factor_bound
from .numerics import QuadResult, integrate_adaptive

# Below this |m r| the hyperbolic-ratio factor switches to its Taylor series.
_SMALL_MR = 1e-4
# Above this exponent the bound-branch ratios switch to exponential form.
_EXP_SWITCH = 30.0


def _sech(x: float) -> float:
    """1 / cosh(x) without overflow for large |x|."""
    e = math.exp(-abs(x))
    return 2.0 * e / (1.0 + e * e)


def _ratio_sin(j: EquationVariant, x: float, chi: float) -> float:
    """c_j(x) sin(chi x) where c_j is the variant's hyperbolic ratio.

    c_1 = coth(pi x / 2), c_2 = c_4 = coth(pi x), c_3 = tanh(pi x / 2).
    The product is even in x with a removable singularity (j != 3) or a
    double zero (j = 3) at x = 0; a joint Taylor expansion in the two
    proportional arguments covers |x| < _SMALL_MR.
    """
    if j == EquationVariant.LT:
        rate = math.pi / 2
    elif j == EquationVariant.MLT:
        rate = math.pi / 2
    else:
        rate = math.pi
    a = rate * x
    b = chi * x
    if abs(x) < _SMALL_MR:
        return _ratio_sin_series(j, a, b, chi, rate)
    if j == EquationVariant.MLT:
        return math.tanh(a) * math.sin(b)
    return math.sin(b) / math.tanh(a)


def _ratio_sin_series(j: EquationVariant, a, b, chi, rate: float):
    """Taylor series of c_j(x) sin(chi x) in a = rate x and b = chi x.

    Plain arithmetic, so floats and numpy arrays both work.
    """
    a2 = a * a
    b2 = b * b
    if j == EquationVariant.MLT:
        # tanh(a) sin(b) = a b (1 - a^2/3 - b^2/6 + 2a^4/15 + a^2 b^2/18 + b^4/120 + ...)
        return a * b * (
            1.0 - a2 / 3.0 - b2 / 6.0
            + 2.0 * a2 * a2 / 15.0 + a2 * b2 / 18.0 + b2 * b2 / 120.0
        )
    # coth(a) sin(b) = (b/a) (1 + a^2/3 - b^2/6 - a^4/45 - a^2 b^2/18 + b^4/120 + ...)
    return (chi / rate) * (
        1.0 + a2 / 3.0 - b2 / 6.0
        - a2 * a2 / 45.0 - a2 * b2 / 18.0 + b2 * b2 / 120.0
    )


def green_line(j: int, kin: Kinematics, r: float) -> complex:
    """Free line kernel G_j(chi, r) on the scattering branch (complex)."""
    j = EquationVariant(j)
    r = float(r)
    if not math.isfinite(r):
        raise DomainError(f"r must be finite, got {r}")
    if kin.chi == 0.0:
        raise ThresholdError("line kernel undefined at chi = 0 (elastic threshold)")
    m, chi = kin.m, kin.chi
    x = m * r
    kj = k_factor(j, kin)
    g = complex(_ratio_sin(j, x, chi), -math.cos(chi * x)) / kj
    if j == EquationVariant.K:
        g += _sech(math.pi * x / 2) / (4.0 * m * math.cosh(chi))
    return g


def green_partial_real(j: int, m: float, chi, r, rp) -> np.ndarray:
    """Re G_j(chi, r, r') on the scattering branch, evaluated on numpy arrays.

    chi, r and r' broadcast against each other; m is a scalar.  The values
    are those of green_partial(j, Kinematics(m, chi), r, rp).real up to
    rounding (numpy's sin and tanh may differ from math's in the last
    place).  r and r' must be finite and non-negative.  The variant
    constants (hyperbolic rate, K_j and the j = 2 sech prefactor) are
    computed once per call.  chi = 0 anywhere raises ThresholdError; a
    rapidity so large that K_j or cosh(chi) overflows raises DomainError.
    """
    j = EquationVariant(j)
    chi = np.asarray(chi, dtype=float)
    if (chi == 0.0).any():
        raise ThresholdError("line kernel undefined at chi = 0 (elastic threshold)")
    rate = math.pi / 2 if j in (EquationVariant.LT, EquationVariant.MLT) else math.pi
    with np.errstate(all="ignore"):
        if j in (EquationVariant.LT, EquationVariant.K):
            kj = m * np.sinh(2.0 * chi)
        else:
            kj = 2.0 * m * np.sinh(chi)
        sech_den = 4.0 * m * np.cosh(chi) if j == EquationVariant.K else 1.0
        if not (np.isfinite(kj).all() and np.isfinite(sech_den).all()):
            raise DomainError(
                f"rapidity too large: K_{int(j)} or cosh(chi) overflows "
                f"for chi up to {float(chi.max())!r} at m = {m!r}"
            )

        def line(x):
            a = rate * x
            b = chi * x
            if j == EquationVariant.MLT:
                g = np.tanh(a) * np.sin(b)
            else:
                g = np.sin(b) / np.tanh(a)
            small = np.abs(x) < _SMALL_MR
            if small.any():
                g = np.where(small, _ratio_sin_series(j, a, b, chi, rate), g)
            g = g / kj
            if j == EquationVariant.K:
                g = g + 1.0 / np.cosh(math.pi * x / 2) / sech_den
            return g

        return line(m * (r - rp)) - line(m * (r + rp))


def _hyperbolic_ratio(kind: str, alpha: float, beta: float, x: float) -> float:
    """sinh(alpha x)/sinh(beta x) or cosh(alpha x)/cosh(beta x), x >= 0.

    Requires 0 < alpha <= beta; evaluated via scaled exponentials once
    beta x is large enough that direct sinh/cosh would lose range.
    """
    if x == 0.0:
        return alpha / beta if kind == "sinh" else 1.0
    if beta * x > _EXP_SWITCH:
        lead = math.exp((alpha - beta) * x)
        ea = math.exp(-2.0 * alpha * x)
        eb = math.exp(-2.0 * beta * x)
        if kind == "sinh":
            return lead * (1.0 - ea) / (1.0 - eb)
        return lead * (1.0 + ea) / (1.0 + eb)
    if kind == "sinh":
        return math.sinh(alpha * x) / math.sinh(beta * x)
    return math.cosh(alpha * x) / math.cosh(beta * x)


def green_line_bound(j: int, be: BoundEnergy, r: float) -> float:
    """Free line kernel G_j(i w, r) on the bound branch (real).

        j=1:  -sinh((pi/2 - w) m r) / (m sin(2w) sinh(pi m r / 2))
        j=2:  1/(4 m cos(w) cosh(pi m r / 2))
              - sinh((pi - w) m r) / (m sin(2w) sinh(pi m r))
        j=3:  -cosh((pi/2 - w) m r) / (2 m sin(w) cosh(pi m r / 2))
        j=4:  -sinh((pi - w) m r) / (2 m sin(w) sinh(pi m r))

    Even in r; the r = 0 limits are finite and negative.
    """
    j = EquationVariant(j)
    r = float(r)
    if not math.isfinite(r):
        raise DomainError(f"r must be finite, got {r}")
    m, w = be.m, be.w
    x = abs(m * r)
    kb = k_factor_bound(j, be)
    if j == EquationVariant.LT:
        ratio = _hyperbolic_ratio("sinh", math.pi / 2 - w, math.pi / 2, x)
    elif j == EquationVariant.MLT:
        ratio = _hyperbolic_ratio("cosh", math.pi / 2 - w, math.pi / 2, x)
    else:
        ratio = _hyperbolic_ratio("sinh", math.pi - w, math.pi, x)
    g = -ratio / kb
    if j == EquationVariant.K:
        g += _sech(math.pi * x / 2) / (4.0 * m * math.cos(w))
    return g


def green_partial(j: int, kin: Kinematics, r: float, rp: float) -> complex:
    """Half-line s-wave kernel via the image construction (scattering branch)."""
    if r < 0 or rp < 0:
        raise DomainError(f"radial coordinates must be non-negative, got {r}, {rp}")
    return green_line(j, kin, r - rp) - green_line(j, kin, r + rp)


def green_partial_bound(j: int, be: BoundEnergy, r: float, rp: float) -> float:
    """Half-line s-wave kernel via the image construction (bound branch)."""
    if r < 0 or rp < 0:
        raise DomainError(f"radial coordinates must be non-negative, got {r}, {rp}")
    return green_line_bound(j, be, r - rp) - green_line_bound(j, be, r + rp)


def green_spectral_oracle(j: int, state, r: float, rp: float, tol: float = 1e-8) -> QuadResult:
    """Bound-branch half-line kernel from its spectral integral.

    Integrates (2/pi) sin(k m r) W_j(k; w) sin(k m r') over the continuum
    rapidity k in [0, inf), where W_j is the variant's spectral weight:

        W_1 = m E_k / (E_k^2 (E_w^2 - E_k^2)) * E_k     -> m / (E_w^2 - E_k^2)
        W_2 = m / (E_k (2 (E_w - E_k)))
        W_3 = E_k / (E_w^2 - E_k^2)
        W_4 = 1 / (2 (E_w - E_k))

    with E_k = m cosh(k) and E_w = m cos(w).  Only the bound branch is
    integrable pole-free (E_w < m <= E_k); real-rapidity states are refused.
    The domain is truncated at k_max = ln(1/tol) + 20 and pre-subdivided on
    the oscillation scale pi / (m max(r, r', 1)) before adaptive quadrature.
    """
    j = EquationVariant(j)
    if isinstance(state, Kinematics):
        raise UnsupportedBranchError(
            "spectral oracle is defined on the bound branch only; "
            "real rapidity places a pole on the integration path"
        )
    if not isinstance(state, BoundEnergy):
        raise DomainError(f"state must be a BoundEnergy, got {type(state).__name__}")
    if r < 0 or rp < 0:
        raise DomainError(f"radial coordinates must be non-negative, got {r}, {rp}")
    if not math.isfinite(tol) or tol < 1e-10:
        raise DomainError(f"tol must be at least 1e-10, got {tol}")
    m, w = state.m, state.w
    e_w = state.energy

    if j == EquationVariant.LT:
        def weight(e_k: float) -> float:
            return m / (e_w * e_w - e_k * e_k)
    elif j == EquationVariant.K:
        def weight(e_k: float) -> float:
            return m / (e_k * 2.0 * (e_w - e_k))
    elif j == EquationVariant.MLT:
        def weight(e_k: float) -> float:
            return e_k / (e_w * e_w - e_k * e_k)
    else:
        def weight(e_k: float) -> float:
            return 1.0 / (2.0 * (e_w - e_k))

    def integrand(k: float) -> float:
        e_k = m * math.cosh(k)
        return (2.0 / math.pi) * math.sin(k * m * r) * weight(e_k) * math.sin(k * m * rp)

    k_max = math.log(1.0 / tol) + 20.0
    pitch = math.pi / (m * max(r, rp, 1.0))
    n_seg = max(1, math.ceil(k_max / pitch))
    edges = [k_max * i / n_seg for i in range(n_seg + 1)]
    total = 0.0
    err = 0.0
    evals = 0
    for a, b in zip(edges[:-1], edges[1:]):
        res = integrate_adaptive(integrand, a, b, tol)
        total += res.value
        err += res.err_estimate
        evals += res.evaluations
    tail = abs(integrand(k_max))  # decay rate >= 1 for every variant
    return QuadResult(total, err + tail, evals + 1)
