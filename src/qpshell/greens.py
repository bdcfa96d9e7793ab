"""Closed-form radial Green functions for the four equation variants.

Each variant j has a free line kernel G_j(chi, r) whose real part carries a
hyperbolic-ratio factor and whose imaginary part is -cos(chi m r) / K_j on
the scattering branch:

    j=1:  [coth(pi m r / 2) sin(chi m r) - i cos(chi m r)] / K_1
    j=2:  as j=4 plus the extra real term 1 / (4 m cosh(chi) cosh(pi m r / 2))
    j=3:  [tanh(pi m r / 2) sin(chi m r) - i cos(chi m r)] / K_3
    j=4:  [coth(pi m r)     sin(chi m r) - i cos(chi m r)] / K_4

with K_1 = K_2 = m sinh(2 chi) and K_3 = K_4 = 2 m sinh(chi).  All kernels
are even in r, and each is evaluated in one closed form (see _line_re_array
and _line_bound_array); a quotient that is 0/0 or subnormal takes its r = 0 limit.
What tells the variants apart (the hyperbolic rate, the ratio form, K_j and
the j = 2 sech term) is one row of the variant table in `kinematics`, which
every kernel here reads; the spectral oracle keeps its own per-variant
weights.

The half-line (partial-wave) kernel follows by the method of images,
G(chi, r, r') = G(chi, r - r') - G(chi, r + r'), which vanishes at r = 0 and
obeys the unitarity identity Im G_j(chi, a, b) = -2 sin(chi m a) sin(chi m b)
/ K_j; green_partial_array takes its imaginary part in that product form.

On the bound branch chi = i w (0 < w < pi/2) the kernels are real, negative
ratios of hyperbolic functions, written with e^{-w m r} and expm1 so that
they neither overflow nor cancel at any r.

green_spectral_oracle recomputes the bound-branch line kernel from its
spectral integral by adaptive quadrature, sharing no code with the above.

Where m enters: K_j and the j = 2 sech denominator are m times functions of
chi alone, so m G depends only on chi and x = m r.  The private cores, which
the shell systems call, compute m G from the image arguments m (r -+ r') and
K_j / m, with no m and no checks.  The public kernels check, form
m (r -+ r') and divide by m once.

Each branch has one kernel body over numpy arrays: _line_re_array on the
real branch, which sweep, the zero condition and green_partial_array run on
grids, and _line_bound_array on the bound branch, which the curve samplers,
the level scan, the shell system at a point and the wave functions run.
The scalar kernels (green_line, green_partial, green_line_bound,
green_partial_bound) are 0-d calls of those bodies, so a scalar and an
array evaluation at one point agree bit for bit.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import DomainError, ThresholdError, UnsupportedBranchError
# k_factor and k_factor_bound are re-exported; nothing here calls them
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

    A 0-d call of the array body _line_re_array, with Im G = -cos(chi m r) /
    K_j.  It refuses as green_partial_array does; a non-finite r raises
    DomainError too."""
    r = float(r)
    if not math.isfinite(r):
        raise DomainError(f"r must be finite, got {r}")
    v, m, chi = _variant(j), kin.m, np.asarray(kin.chi)
    kt, sech_den = _check_rapidity(v, chi, m)
    x = m * r
    if not math.isfinite(kin.chi * x):
        raise _reach_error(kin.chi, m, r)
    with np.errstate(all="ignore"):
        return complex(float(_line_re_array(v, chi, kt, sech_den, x) / m),
                       float(-np.cos(chi * x) / kt / m))


def _reach_error(chi: float, m: float, r: float, rp: float = 0.0) -> DomainError:
    """A chi m (r + r') beyond the float range: sin has no value there."""
    at = f"r = {r!r}" if rp == 0.0 else f"r + r' = {r!r} + {rp!r}"
    return DomainError(f"chi m r is not finite at chi = {chi!r}, m = {m!r}, {at}")


def _real_factors(v: _Variant, chi: np.ndarray) -> tuple[np.ndarray, np.ndarray | float]:
    """K_j / m and the j = 2 sech denominator over m, 4 cosh(chi) (else 1.0),
    over an array of rapidities; inf where they overflow."""
    kt = v.k_scale * np.sinh(v.k_rate * chi)
    sech_den = 4.0 * np.cosh(chi) if v.sech else 1.0
    return kt, sech_den


def _check_rapidity(v: _Variant, chi, m: float) -> tuple:
    """_real_factors at chi, refusing a negative chi (DomainError), chi = 0
    and an overflowing K_j / m or cosh(chi); m only names the point."""
    chi = np.asarray(chi)
    if (chi < 0.0).any():
        raise DomainError(f"rapidity must be non-negative, got {float(np.min(chi))!r}")
    if (chi == 0.0).any():
        raise ThresholdError("line kernel undefined at chi = 0 (elastic threshold)")
    with np.errstate(over="ignore"):
        kt, sech_den = _real_factors(v, chi)
    if not (np.isfinite(kt).all() and np.isfinite(sech_den).all()):
        raise DomainError(f"rapidity too large: K_{v.j} or cosh(chi) overflows "
                          f"for chi up to {float(np.max(chi))!r} at m = {m!r}")
    return kt, sech_den


def green_partial_array(j: int, m: float, chi, r, rp) -> np.ndarray:
    """G_j(chi, r, r') on the scattering branch, evaluated on numpy arrays.

    chi, r and r' broadcast against each other; m is a scalar.  Re G is the
    image difference of _line_re_array; Im G is the product -2 sin(chi m r)
    sin(chi m r') / K_j, since the difference of the two cosine images
    cancels as chi -> 0.  Both are formed as m G and divided by m once;
    where the sine product is subnormal, each sine is divided by sqrt(K_j)
    instead.  m must be finite and positive and chi, r, r' non-negative
    (DomainError).  chi = 0 anywhere raises ThresholdError; an overflowing
    K_j / m or cosh(chi), or a chi m (r + r') beyond the float range, raises
    DomainError.
    """
    v = _variant(j)
    m, _ = _dimensionless(m)
    chi, r, rp = (np.asarray(a, dtype=float) for a in (chi, r, rp))
    if (r < 0).any() or (rp < 0).any():
        raise DomainError(f"radial coordinates must be non-negative, got min r = "
                          f"{float(np.min(r))!r}, min r' = {float(np.min(rp))!r}")
    kt, sech_den = _check_rapidity(v, chi, m)
    with np.errstate(all="ignore"):
        re = _partial_re_array(v, chi, kt, sech_den, m * (r - rp), m * (r + rp)) / m
        s, sp = np.sin(chi * (m * r)), np.sin(chi * (m * rp))
        # sqrt(K_j) as the two factors sqrt(K_j / m) and sqrt(m), whose product may underflow
        rk, rm = np.sqrt(kt), math.sqrt(m)
        im = np.where(np.abs(s * sp) < _TINY, -2.0 * (s / rk / rm) * (sp / rk / rm),
                      -2.0 * s * sp / kt / m)
    # With K_j / m finite, a NaN can only be sin of a non-finite chi m (r + r')
    bad = np.isnan(re)
    if bad.any():
        k = np.argmax(bad)
        chi_k, r_k, rp_k = np.broadcast_arrays(chi, r, rp)
        raise _reach_error(float(chi_k.flat[k]), m, float(r_k.flat[k]), float(rp_k.flat[k]))
    g = np.empty(re.shape, dtype=complex)
    g.real, g.imag = re, im
    return g


def _line_re_array(v: _Variant, chi, kt, sech_den, x):
    """m Re G_j(chi, r) at x = m r over arrays, with _real_factors given and
    warnings off.

    c_j(x) sin(chi x) / kt (plus the sech term for j = 2), where c_1 =
    coth(pi x / 2), c_2 = c_4 = coth(pi x) and c_3 = tanh(pi x / 2): with
    a = rate x and b = chi x, tanh(a) sin(b) for j = 3 and sin(b) / tanh(a)
    otherwise.  The quotient takes its x -> 0 limit chi / rate where a or b
    is below _TINY, where it is 0/0 or subnormal; a j = 2 sech term whose
    4 cosh(chi) overflows is 0.
    """
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


def _partial_re_array(v: _Variant, chi, kt, sech_den, d, s) -> np.ndarray:
    """m Re G_j(chi, r, r') over arrays from the image arguments d = m (r - r')
    and s = m (r + r'), with _real_factors given, warnings off."""
    return _line_re_array(v, chi, kt, sech_den, d) - _line_re_array(v, chi, kt, sech_den, s)


def green_line_bound(j: int, be: BoundEnergy, r: float) -> float:
    """Free line kernel G_j(i w, r) on the bound branch (real).

        j=1:  -sinh((pi/2 - w) m r) / (m sin(2w) sinh(pi m r / 2))
        j=2:  1/(4 m cos(w) cosh(pi m r / 2))
              - sinh((pi - w) m r) / (m sin(2w) sinh(pi m r))
        j=3:  -cosh((pi/2 - w) m r) / (2 m sin(w) cosh(pi m r / 2))
        j=4:  -sinh((pi - w) m r) / (2 m sin(w) sinh(pi m r))

    Even in r; the r = 0 limits are finite and negative.  A 0-d call of the
    array body _line_bound_array.  Nothing in the package or its benchmark
    jobs calls it: it is the public line kernel of the bound branch, which
    the tests check against the analytic continuation of the real-branch
    kernel and against mpmath.
    """
    r = float(r)
    if not math.isfinite(r):
        raise DomainError(f"r must be finite, got {r}")
    v, w = _variant(j), np.float64(be.w)
    with np.errstate(all="ignore"):
        return float(_line_bound_array(v, w, *_bound_factors(v, w), be.m * r) / be.m)


def _bound_factors(v: _Variant, w) -> tuple:
    """K_j(i w) / (i m) and the j = 2 sech denominator over m, 4 cos(w)
    (else 1.0), over an array of w in (0, pi/2)."""
    kt = v.k_scale * np.sin(v.k_rate * w)
    sech_den = 4.0 * np.cos(w) if v.sech else 1.0
    return kt, sech_den


def _line_bound_array(v: _Variant, w, kt, sech_den, x):
    """m G_j(i w, r) at x = m r over arrays, with _bound_factors given and
    warnings off.

    With beta = rate and alpha = beta - w, the ratio cosh(alpha x) /
    cosh(beta x) (j = 3) is e^{-w x} (1 + e^{-2 alpha x}) / (1 + e^{-2 beta
    x}), and sinh(alpha x) / sinh(beta x) is e^{-w x} expm1(-2 alpha x) /
    expm1(-2 beta x), which takes its limit alpha / beta where alpha x is
    below _TINY, where it is 0/0 or subnormal.  The j = 2 sech term is
    2 e / (1 + e^2) / sech_den with e = e^{-pi x / 2}.
    """
    x = np.abs(x)
    beta = v.rate
    alpha = beta - w
    if v.tanh:
        ratio = np.exp(-w * x) * (1.0 + np.exp(-2.0 * alpha * x)) / (
            1.0 + np.exp(-2.0 * beta * x))
    else:
        ratio = np.where(alpha * x < _TINY, alpha / beta,
                         np.exp(-w * x) * np.expm1(-2.0 * alpha * x)
                         / np.expm1(-2.0 * beta * x))
    g = -ratio / kt
    if v.sech:
        e = np.exp(-(math.pi * x / 2))
        g = g + 2.0 * e / (1.0 + e * e) / sech_den
    return g


def _partial_bound_array(v: _Variant, w, kt, sech_den, d, s) -> np.ndarray:
    """m G_j(i w, r, r') over arrays from the image arguments d = m (r - r')
    and s = m (r + r'), with _bound_factors given; warnings off, since
    np.where evaluates the 0/0 it discards at x = 0."""
    with np.errstate(all="ignore"):
        return _line_bound_array(v, w, kt, sech_den, d) - _line_bound_array(v, w, kt, sech_den, s)


def green_partial(j: int, kin: Kinematics, r: float, rp: float) -> complex:
    """Half-line s-wave kernel via the image construction (scattering branch):
    a 0-d call of green_partial_array, with its refusals."""
    return complex(green_partial_array(j, kin.m, kin.chi, r, rp))


def green_partial_bound(j: int, be: BoundEnergy, r: float, rp: float) -> float:
    """Half-line s-wave kernel via the image construction (bound branch): a
    0-d call of green_partial_bound_array, with its refusals."""
    return float(green_partial_bound_array(j, be.m, be.w, r, rp))


def green_partial_bound_array(j: int, m: float, w, r, rp) -> np.ndarray:
    """G_j(i w, r, r') on the bound branch, evaluated on numpy arrays.

    w, r and r' broadcast against each other; m is a scalar.  The image
    difference of _line_bound_array, formed as m G and divided by m once.
    m must be finite and positive, every w inside (0, pi/2), and r, r' finite
    and non-negative; otherwise DomainError.
    """
    v = _variant(j)
    m, _ = _dimensionless(m)
    w, r, rp = (np.asarray(a, dtype=float) for a in (w, r, rp))
    if not ((w > 0.0) & (w < math.pi / 2)).all():
        raise DomainError("w must lie in the open interval (0, pi/2)")
    if not ((r >= 0.0) & (r < math.inf) & (rp >= 0.0) & (rp < math.inf)).all():
        raise DomainError("radial coordinates must be finite and non-negative")
    with np.errstate(over="ignore"):
        return _partial_bound_array(v, w, *_bound_factors(v, w), m * (r - rp), m * (r + rp)) / m


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
    if not (0 <= r < math.inf and 0 <= rp < math.inf):
        raise DomainError(f"radial coordinates must be finite and non-negative, got {r}, {rp}")
    if not math.isfinite(tol) or tol < 1e-10:
        raise DomainError(f"tol must be at least 1e-10, got {tol}")
    m, w = state.m, state.w
    e_w = state.energy

    if j == EquationVariant.LT:
        def weight(e_k):
            return m / (e_w * e_w - e_k * e_k)
    elif j == EquationVariant.K:
        def weight(e_k):
            return m / (e_k * 2.0 * (e_w - e_k))
    elif j == EquationVariant.MLT:
        def weight(e_k):
            return e_k / (e_w * e_w - e_k * e_k)
    else:
        def weight(e_k):
            return 1.0 / (2.0 * (e_w - e_k))

    def integrand(k):
        e_k = m * np.cosh(k)
        return (2.0 / math.pi) * np.sin(k * m * r) * weight(e_k) * np.sin(k * m * rp)

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
    tail = float(abs(integrand(k_max)))  # decay rate >= 1 for every variant
    return QuadResult(total, err + tail, evals + 1)
