"""Closed-form radial Green functions for the four equation variants.

Each variant j has a free line kernel G_j(chi, r) whose real part carries a
hyperbolic-ratio factor and whose imaginary part is -cos(chi m r) / K_j on
the scattering branch:

    j=1:  [coth(pi m r / 2) sin(chi m r) - i cos(chi m r)] / K_1
    j=2:  as j=4 plus the extra real term 1 / (4 m cosh(chi) cosh(pi m r / 2))
    j=3:  [tanh(pi m r / 2) sin(chi m r) - i cos(chi m r)] / K_3
    j=4:  [coth(pi m r)     sin(chi m r) - i cos(chi m r)] / K_4

with K_1 = K_2 = m sinh(2 chi) and K_3 = K_4 = 2 m sinh(chi).  All kernels
are even in r, and each is evaluated in one closed form (see _line_re and
_line_bound); a quotient that is 0/0 or subnormal takes its r = 0 limit.
What tells the variants apart (the hyperbolic rate, the ratio form, K_j and
the j = 2 sech term) is one row of the variant table in `kinematics`, which
every kernel here reads; the spectral oracle keeps its own per-variant
weights.

The half-line (partial-wave) kernel follows by the method of images,
G(chi, r, r') = G(chi, r - r') - G(chi, r + r'), which vanishes at r = 0 and
obeys the unitarity identity Im G_j(chi, a, b) = -2 sin(chi m a) sin(chi m b)
/ K_j; green_partial takes its imaginary part in that product form.

On the bound branch chi = i w (0 < w < pi/2) the kernels are real, negative
ratios of hyperbolic functions, written with e^{-w m r} and expm1 so that
they neither overflow nor cancel at any r.

green_spectral_oracle recomputes the bound-branch line kernel from its
spectral integral by adaptive quadrature, sharing no code with the above.

Where m enters: K_j and the j = 2 sech denominator are m times functions of
chi alone, so m G depends only on chi and x = m r.  The private cores, which
the shell systems call, compute m G from the image arguments m (r -+ r') and
K_j / m, with no m and no checks.  The public kernels, scalar (green_line,
green_partial: the reference) or over numpy arrays (green_partial_real,
green_partial_bound_array), check, form m (r -+ r') and divide by m once.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import DomainError, ThresholdError, UnsupportedBranchError
from .kinematics import (BoundEnergy, EquationVariant, Kinematics, _dimensionless, _variant,
                         _Variant, k_factor, k_factor_bound)
from .numerics import QuadResult, integrate_adaptive

# Below this, a kernel argument is subnormal or 0 and a ratio of two such
# arguments takes its limit: a property of the float format, not a tuning knob.
_TINY = sys.float_info.min


def _sech(x: float) -> float:
    """1 / cosh(x) without overflow for large |x|."""
    e = math.exp(-abs(x))
    return 2.0 * e / (1.0 + e * e)


def green_line(j: int, kin: Kinematics, r: float) -> complex:
    """Free line kernel G_j(chi, r) on the scattering branch (complex).

    A K_j or a chi m r beyond the float range raises DomainError."""
    r = float(r)
    if not math.isfinite(r):
        raise DomainError(f"r must be finite, got {r}")
    if kin.chi == 0.0:
        raise ThresholdError("line kernel undefined at chi = 0 (elastic threshold)")
    m, chi = kin.m, kin.chi
    x = m * r
    kj = k_factor(j, kin)
    if not math.isfinite(chi * x):
        raise _reach_error(chi, m, r)
    return complex(_line_re(_variant(j), chi, kj / m, x) / m, -math.cos(chi * x) / kj)


def _reach_error(chi: float, m: float, r: float, rp: float = 0.0) -> DomainError:
    """A chi m (r + r') beyond the float range: sin has no value there."""
    at = f"r = {r!r}" if rp == 0.0 else f"r + r' = {r!r} + {rp!r}"
    return DomainError(f"chi m r is not finite at chi = {chi!r}, m = {m!r}, {at}")


def _line_re(v: _Variant, chi: float, kt: float, x: float) -> float:
    """m Re G_j(chi, r) at x = m r, with kt = K_j / m given.

    c_j(x) sin(chi x) / kt (plus the sech term for j = 2), where c_1 =
    coth(pi x / 2), c_2 = c_4 = coth(pi x) and c_3 = tanh(pi x / 2): with
    a = rate x and b = chi x, tanh(a) sin(b) for j = 3 and sin(b) / tanh(a)
    otherwise.  The quotient takes its x -> 0 limit chi / rate where a or b
    is below _TINY, where it is 0/0 or subnormal.
    """
    a = v.rate * x
    b = chi * x
    if v.tanh:
        g = math.tanh(a) * math.sin(b)
    elif abs(a) < _TINY or abs(b) < _TINY:
        g = chi / v.rate
    else:
        g = math.sin(b) / math.tanh(a)
    g /= kt
    if v.sech:
        g += _sech(math.pi * x / 2) / (4.0 * math.cosh(chi))
    return g


def _real_factors(v: _Variant, chi: np.ndarray) -> tuple[np.ndarray, np.ndarray | float]:
    """K_j / m and the j = 2 sech denominator over m, 4 cosh(chi) (else 1.0),
    over an array of rapidities; inf where they overflow."""
    kt = v.k_scale * np.sinh(v.k_rate * chi)
    sech_den = 4.0 * np.cosh(chi) if v.sech else 1.0
    return kt, sech_den


def _check_rapidity(v: _Variant, chi, m: float) -> tuple:
    """_real_factors at chi, refusing chi = 0 and an overflowing K_j / m or
    cosh(chi); m only names the point."""
    chi = np.asarray(chi)
    if (chi == 0.0).any():
        raise ThresholdError("line kernel undefined at chi = 0 (elastic threshold)")
    with np.errstate(over="ignore"):
        kt, sech_den = _real_factors(v, chi)
    if not (np.isfinite(kt).all() and np.isfinite(sech_den).all()):
        raise DomainError(f"rapidity too large: K_{v.j} or cosh(chi) overflows "
                          f"for chi up to {float(np.max(chi))!r} at m = {m!r}")
    return kt, sech_den


def green_partial_real(j: int, m: float, chi, r, rp) -> np.ndarray:
    """Re G_j(chi, r, r') on the scattering branch, evaluated on numpy arrays.

    chi, r and r' broadcast against each other; m is a scalar.  The values
    are those of green_partial(j, Kinematics(m, chi), r, rp).real up to
    rounding; r and r' must be finite and non-negative.  chi = 0 anywhere
    raises ThresholdError; a negative radius, an overflowing K_j / m or
    cosh(chi), or a chi m (r + r') beyond the float range raises DomainError.
    """
    v = _variant(j)
    if (np.asarray(r) < 0).any() or (np.asarray(rp) < 0).any():
        raise DomainError(f"radial coordinates must be non-negative, got min r = "
                          f"{float(np.min(r))!r}, min r' = {float(np.min(rp))!r}")
    chi = np.asarray(chi, dtype=float)
    kt, sech_den = _check_rapidity(v, chi, m)
    with np.errstate(all="ignore"):
        g = _partial_re_array(v, chi, kt, sech_den, m * (r - rp), m * (r + rp)) / m
    # With K_j / m finite, a NaN can only be sin of a non-finite chi m (r + r')
    bad = np.isnan(g)
    if bad.any():
        k = np.argmax(bad)
        chi_k, r_k, rp_k = np.broadcast_arrays(chi, r, rp)
        raise _reach_error(float(chi_k.flat[k]), m, float(r_k.flat[k]), float(rp_k.flat[k]))
    return g


def _partial_re_array(v: _Variant, chi: np.ndarray, kt: np.ndarray, sech_den,
                      d, s) -> np.ndarray:
    """m Re G_j(chi, r, r') over arrays from the image arguments d = m (r - r')
    and s = m (r + r'), with _real_factors given: _line_re element by element
    (a j = 2 sech term whose 4 cosh(chi) overflows is 0), warnings off."""

    def line(x):
        a = v.rate * x
        b = chi * x
        if v.tanh:
            g = np.tanh(a) * np.sin(b)
        else:
            g = np.where((np.abs(a) < _TINY) | (np.abs(b) < _TINY), chi / v.rate,
                         np.sin(b) / np.tanh(a))
        g = g / kt
        if v.sech:
            g = g + 1.0 / np.cosh(math.pi * x / 2) / sech_den
        return g

    return line(d) - line(s)


def green_line_bound(j: int, be: BoundEnergy, r: float) -> float:
    """Free line kernel G_j(i w, r) on the bound branch (real).

        j=1:  -sinh((pi/2 - w) m r) / (m sin(2w) sinh(pi m r / 2))
        j=2:  1/(4 m cos(w) cosh(pi m r / 2))
              - sinh((pi - w) m r) / (m sin(2w) sinh(pi m r))
        j=3:  -cosh((pi/2 - w) m r) / (2 m sin(w) cosh(pi m r / 2))
        j=4:  -sinh((pi - w) m r) / (2 m sin(w) sinh(pi m r))

    Even in r; the r = 0 limits are finite and negative.  Nothing in the
    package calls it; it stays as the bound line kernel the benchmark times.
    """
    r = float(r)
    if not math.isfinite(r):
        raise DomainError(f"r must be finite, got {r}")
    v = _variant(j)
    return _line_bound(v, be.w, v.k_reduced_bound(be.w), be.m * r) / be.m


def _line_bound(v: _Variant, w: float, kt: float, x: float) -> float:
    """m G_j(i w, r) at x = m r, with kt = K_j(i w) / (i m) given.

    With beta = rate and alpha = beta - w, the ratio cosh(alpha x) /
    cosh(beta x) (j = 3) is e^{-w x} (1 + e^{-2 alpha x}) / (1 + e^{-2 beta
    x}), and sinh(alpha x) / sinh(beta x) is e^{-w x} expm1(-2 alpha x) /
    expm1(-2 beta x), which takes its limit alpha / beta where alpha x is
    below _TINY, where it is 0/0 or subnormal.
    """
    x = abs(x)
    beta = v.rate
    alpha = beta - w
    if v.tanh:
        ratio = math.exp(-w * x) * (1.0 + math.exp(-2.0 * alpha * x)) / (
            1.0 + math.exp(-2.0 * beta * x))
    elif alpha * x < _TINY:
        ratio = alpha / beta
    else:
        ratio = math.exp(-w * x) * math.expm1(-2.0 * alpha * x) / math.expm1(-2.0 * beta * x)
    g = -ratio / kt
    if v.sech:
        g += _sech(math.pi * x / 2) / (4.0 * math.cos(w))
    return g


def green_partial(j: int, kin: Kinematics, r: float, rp: float) -> complex:
    """Half-line s-wave kernel via the image construction (scattering branch).

    The real part is the image difference of the line kernels.  The
    imaginary part is its product form -2 sin(chi m r) sin(chi m r') / K_j:
    the difference of the two cosine images cancels as chi -> 0.
    """
    if r < 0 or rp < 0:
        raise DomainError(f"radial coordinates must be non-negative, got {r}, {rp}")
    chi, m = kin.chi, kin.m
    if not math.isfinite(chi * (m * (r + rp))):
        raise _reach_error(chi, m, r, rp)
    re = green_line(j, kin, r - rp).real - green_line(j, kin, r + rp).real
    return complex(re, -2.0 * math.sin(chi * (m * r)) * math.sin(chi * (m * rp))
                   / k_factor(j, kin))


def green_partial_bound(j: int, be: BoundEnergy, r: float, rp: float) -> float:
    """Half-line s-wave kernel via the image construction (bound branch)."""
    if not (0 <= r < math.inf and 0 <= rp < math.inf):
        raise DomainError(f"radial coordinates must be finite and non-negative, got {r}, {rp}")
    v, m, w = _variant(j), be.m, be.w
    return _partial_bound(v, w, v.k_reduced_bound(w), m * (r - rp), m * (r + rp)) / m


def _partial_bound(v: _Variant, w: float, kt: float, d: float, s: float) -> float:
    """m G(i w, r, r') from the image arguments d = m (r - r'), s = m (r + r')."""
    return _line_bound(v, w, kt, d) - _line_bound(v, w, kt, s)


def _partial_bound_array(v: _Variant, w: np.ndarray, d, s) -> np.ndarray:
    """_partial_bound over arrays, with the reduced factors computed once."""
    beta = v.rate
    alpha = beta - w
    kt = v.k_scale * np.sin(v.k_rate * w)
    sech_den = 4.0 * np.cos(w) if v.sech else None

    def line(x):
        x = np.abs(x)
        if v.tanh:
            ratio = np.exp(-w * x) * (1.0 + np.exp(-2.0 * alpha * x)) / (
                1.0 + np.exp(-2.0 * beta * x))
        else:
            # 0/0 where alpha x is 0, hence the errstate
            ratio = np.where(alpha * x < _TINY, alpha / beta,
                             np.exp(-w * x) * np.expm1(-2.0 * alpha * x)
                             / np.expm1(-2.0 * beta * x))
        g = -ratio / kt
        if sech_den is not None:
            e = np.exp(-(math.pi * x / 2))
            g = g + 2.0 * e / (1.0 + e * e) / sech_den
        return g

    with np.errstate(all="ignore"):
        return line(d) - line(s)


def green_partial_bound_array(j: int, m: float, w, r, rp) -> np.ndarray:
    """G_j(i w, r, r') on the bound branch, evaluated on numpy arrays.

    w, r and r' broadcast against each other; m is a scalar.  The values are
    those of green_partial_bound(j, BoundEnergy(m, w), r, rp) up to rounding.
    m must be finite and positive, every w inside (0, pi/2), and r, r' finite
    and non-negative; otherwise DomainError.
    """
    v = _variant(j)
    m, _ = _dimensionless(m)
    w = np.asarray(w, dtype=float)
    r = np.asarray(r, dtype=float)
    rp = np.asarray(rp, dtype=float)
    if not ((w > 0.0) & (w < math.pi / 2)).all():
        raise DomainError("w must lie in the open interval (0, pi/2)")
    if not ((r >= 0.0) & (r < math.inf) & (rp >= 0.0) & (rp < math.inf)).all():
        raise DomainError("radial coordinates must be finite and non-negative")
    with np.errstate(over="ignore"):
        return _partial_bound_array(v, w, m * (r - rp), m * (r + rp)) / m


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
    j = EquationVariant(_variant(j).j)
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
