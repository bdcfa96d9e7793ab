"""Bound-state quantization, inverse-strength curves and wave functions.

On the bound branch chi = i w the half-line kernel G(i w, r, r') is real, so
the K-matrix A = 1 - G V of the shell system in `scattering` is the whole
system, and a level of any number of shells exists at w exactly where

    det [ delta_ks - G(i w, a_k, a_s) V_s ] = 0.

For one shell this is 1 - V0 G(i w, a, a) = 0, inverted here as the curve
V0(w) = 1 / G(i w, a, a).  For two shells the same determinant supports two
useful inversions: V2(w) at fixed V1, and the two branches V1(+-)(w) under
the constraint V2 = alpha V1, which is a quadratic in V1 whose discriminant
can close (no real strength reaches that w when it is negative).

The curves and the level scan's grid of w are evaluated as numpy arrays:
the reduced array kernel fills the same shell system (`_shell_matrix`,
`_det`, whose + - * work element-wise), and the V1(+-) algebra is written
once for floats and arrays alike; a sampled curve is one `QuantCurve` of
read-only columns, NaN wherever a sample is flagged.  Each level is then
bisected, and its poles rejected, on the scalar det_bound, so the level
positions are those of a point-by-point scan.

Where m enters and leaves: det(1 - G V) and the levels w depend only on
the reduced shells (V_k / m, m a_k); `_kernel` and `_det_array` take no m.
V0, V2 and V1(+-) are m times their reduced values (V1 enters as V1 / m).

Wave functions are superpositions of bound kernels anchored at the shells,
psi(r) = N sum_k c_k V_k G(i w, r, a_k), with (c_k) the null vector of A
(its largest adjugate column), the overall sign fixed by psi > 0 at the
innermost shell where psi does not vanish, and N fixed by the radial
normalization  integral_0^inf psi(r)^2 dr = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import DomainError, SingularPointError
from .greens import _partial_bound, _partial_bound_array, _sech, green_partial_bound
from .kinematics import (
    BOUND_W_HI,
    BOUND_W_LO,
    BoundEnergy,
    EquationVariant,
    _check_finite,
    _dimensionless,
    _variant,
    _Variant,
)
from .numerics import find_roots_scan, integrate_semi_infinite
from .scattering import ShellPotential, _adj_apply, _det, _shell_matrix

# A quantization point must close det A to this residual, and the
# normalization integral of a bound wave function converge to this tolerance.
_RESIDUAL_TOL = 1e-8
_NORM_TOL = 1e-10


@dataclass(frozen=True)
class BoundLevel:
    """One bound level: location, energy, closure residual and shell data."""

    j: int
    w: float
    two_body_energy: float
    residual: float
    psi_shell: tuple[float, ...]
    norm_constant: float


@dataclass(frozen=True)
class QuantCurve:
    """A curve sampled over a grid of w, as read-only numpy columns of equal
    length; value is NaN exactly where finite is False (a pole, a closed
    discriminant or a non-finite value)."""

    w: np.ndarray
    value: np.ndarray
    finite: np.ndarray

    def __post_init__(self):
        for col in self.columns():
            col.flags.writeable = False

    def __len__(self) -> int:
        return len(self.w)

    def columns(self) -> tuple[np.ndarray, ...]:
        return (self.w, self.value, self.finite)


@dataclass(frozen=True)
class V1Roots:
    """Both branches of the constrained quadratic; equal when degenerate."""

    plus: float
    minus: float
    degenerate: bool = False


def v0_of_w(j: int, be: BoundEnergy, a: float) -> float:
    """Single-shell strength placing a level at w: V0 = 1 / G(i w, a, a)."""
    if a <= 0:
        raise DomainError(f"shell radius must be positive, got {a}")
    g = green_partial_bound(j, be, a, a)
    if g == 0.0 or not math.isfinite(g):
        raise SingularPointError(f"kernel diagonal vanishes at w = {be.w!r}")
    return 1.0 / g


# Above this exponent _hyperbolic_ratio switches to exponential form.
_EXP_SWITCH = 30.0


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


def v0_of_w_explicit(j: int, be: BoundEnergy, a: float) -> float:
    """Single-shell strength from the fully reduced hyperbolic-ratio forms.

        j=1:  m sin(2w) / [2w/pi - 1 + sinh((pi-2w) m a)/sinh(pi m a)]
        j=2:  1 / ( [w/pi - 1 + sinh(2(pi-w) m a)/sinh(2 pi m a)]/(m sin 2w)
                    + [1 - sech(pi m a)]/(4 m cos w) )
        j=3:  2 m sin(w) / [cosh((pi-2w) m a)/cosh(pi m a) - 1]
        j=4:  2 m sin(w) / [w/pi - 1 + sinh(2(pi-w) m a)/sinh(2 pi m a)]

    Independent route to v0_of_w used for cross-checking.
    """
    j = EquationVariant(_variant(j).j)
    if a <= 0:
        raise DomainError(f"shell radius must be positive, got {a}")
    m, w = be.m, be.w
    x = m * a
    if j == EquationVariant.LT:
        den = 2 * w / math.pi - 1 + _hyperbolic_ratio("sinh", math.pi - 2 * w, math.pi, x)
        num = m * math.sin(2 * w)
    elif j == EquationVariant.K:
        part = (
            w / math.pi - 1 + _hyperbolic_ratio("sinh", 2 * (math.pi - w), 2 * math.pi, x)
        ) / (m * math.sin(2 * w))
        part += (1.0 - _sech(math.pi * x)) / (4 * m * math.cos(w))
        if part == 0.0:
            raise SingularPointError(f"curve denominator vanishes at w = {w!r}")
        return 1.0 / part
    elif j == EquationVariant.MLT:
        den = _hyperbolic_ratio("cosh", math.pi - 2 * w, math.pi, x) - 1.0
        num = 2 * m * math.sin(w)
    else:
        den = w / math.pi - 1 + _hyperbolic_ratio("sinh", 2 * (math.pi - w), 2 * math.pi, x)
        num = 2 * m * math.sin(w)
    if den == 0.0:
        raise SingularPointError(f"curve denominator vanishes at w = {w!r}")
    return num / den


def _kernel(v: _Variant, w: float) -> Callable[[float, float], float]:
    """m G(i w, r, r') of (x, x') = (m r, m r'), with K_j(i w) / (i m) resolved once."""
    kt = v.k_reduced_bound(w)
    return lambda x, xp: _partial_bound(v, w, kt, x - xp, x + xp)


def det_bound(j: int, be: BoundEnergy, pot: ShellPotential) -> float:
    """Quantization determinant det[1 - G V] at this w (real)."""
    return _det(_shell_matrix(_dimensionless(be.m, pot.shells)[1], _kernel(_variant(j), be.w)))


def _check_alpha(alpha: float) -> None:
    _check_finite("alpha", alpha)
    if alpha == 0.0:
        raise DomainError("alpha must be non-zero (V2 = alpha V1 with two shells)")


def _pair(kernel: Callable, m: float, a1: float, a2: float, v1: float = 0.0) -> tuple:
    """(m, V1 / m, m G11, m G22, m G12) at a1 < a2 from the reduced kernel(x, x')."""
    if not 0 < a1 < a2:
        raise DomainError(f"radii must satisfy 0 < a1 < a2, got {a1}, {a2}")
    m, ((g1, x1), (_, x2)) = _dimensionless(m, ((v1, a1), (0.0, a2)))
    return m, g1, kernel(x1, x1), kernel(x2, x2), kernel(x1, x2)


def _v1pm_parts(g11, g22, g12, alpha: float) -> tuple:
    """Both roots of the tied-strength quadratic, element-wise.

    Returns (plus, minus, degenerate, closed).  closed marks a negative
    discriminant, where no real strength binds (both roots NaN).  A
    degenerate quadratic (qa lost to rounding) has its single root
    -qc / qb in both; where qb = 0 as well, that root is infinite.  The
    other roots come from the cancellation-free form, labeled so that
    plus/minus carry the +/- sign of the quadratic formula.  numpy's
    + - * /, sqrt and copysign round as Python's do, so a float input gives
    the digits of the scalar formula.
    """
    g11, g22, g12 = (np.asarray(g, dtype=float) for g in (g11, g22, g12))
    qc = 1.0
    # overflows and NaNs are left to the callers' finiteness tests
    with np.errstate(all="ignore"):
        qa = alpha * (g11 * g22 - g12 * g12)
        qb = -(g11 + alpha * g22)
        disc = (g11 - alpha * g22) ** 2 + 4.0 * alpha * g12 * g12
        scale_a = abs(alpha) * (abs(g11 * g22) + g12 * g12)
        degenerate = (qa == 0.0) | (abs(qa) < 1e-14 * (scale_a + 0.25 * qb * qb))
        qq = -0.5 * (qb + np.copysign(np.sqrt(disc), qb))
        far, near = qq / qa, qc / qq
        single = -qc / qb
    # the sign bit, as copysign reads it: qb = -0.0 counts as negative
    plus = np.where(degenerate, single, np.where(np.signbit(qb), far, near))
    minus = np.where(degenerate, single, np.where(np.signbit(qb), near, far))
    closed = disc < 0.0
    return plus, minus, degenerate, closed


def v1_pm_of_w(j: int, be: BoundEnergy, a1: float, a2: float, alpha: float):
    """Both V1 branches under the tied-strength constraint V2 = alpha V1.

    det = 0 becomes  alpha (G11 G22 - G12^2) V1^2 - (G11 + alpha G22) V1 + 1
    = 0.  The discriminant rearranges to (G11 - alpha G22)^2 + 4 alpha G12^2,
    manifestly non-negative for alpha >= 0.  Returns None when it is
    negative (possible only for alpha < 0): no real strength binds at w.
    Roots are evaluated in the cancellation-free form and labeled so that
    `plus`/`minus` carry the +/- sign of the quadratic formula.  They are
    m times the roots in V1 / m with the reduced kernels m G.
    """
    _check_alpha(alpha)
    m, _, *g = _pair(_kernel(_variant(j), be.w), be.m, a1, a2)
    plus, minus, degenerate, closed = _v1pm_parts(*g, alpha)
    if closed:
        return None
    plus, minus = m * float(plus), m * float(minus)
    if not (math.isfinite(plus) and math.isfinite(minus)):
        raise SingularPointError(f"quadratic degenerates entirely at w = {be.w!r}")
    return V1Roots(plus=plus, minus=minus, degenerate=bool(degenerate))


def bound_wavefunction(j: int, m: float, w: float,
                       pot: ShellPotential) -> tuple[Callable[[float], float], BoundLevel]:
    """Normalized bound wave function at a quantization point (m, w, pot).

    Returns (psi, level).  psi is a plain callable; level records the
    quantization residual |det|, psi evaluated at the shells and the
    normalization constant applied to the kernel superposition.  A residual
    above _RESIDUAL_TOL means (m, w, pot) is not on the quantization surface
    and is rejected; the normalization integral must converge to _NORM_TOL.
    """
    v = _variant(j)
    be = BoundEnergy(m, w)
    m, shells = _dimensionless(m, pot.shells)
    kernel = _kernel(v, w)
    mat = _shell_matrix(shells, kernel)
    residual = abs(_det(mat))
    if residual > _RESIDUAL_TOL:
        raise DomainError(
            f"(m, w) = ({m}, {w}) is not a quantization point of this "
            f"potential: |det| = {residual:.3e} > {_RESIDUAL_TOL:.1e}"
        )
    # A adj(A) = det(A) = 0: every adjugate column is a null vector of A;
    # the largest is the best conditioned.
    n = len(mat)
    columns = (_adj_apply(mat, [float(i == k) for i in range(n)]) for k in range(n))
    coeff = max(columns, key=lambda c: sum(x * x for x in c))
    if not any(coeff):
        raise SingularPointError(f"quantization matrix vanishes identically at w = {w!r}")

    def psi_hat(r: float) -> float:
        x = m * r  # sum_k c_k V_k G(r, a_k) = sum_k c_k g_k (m G)(x, x_k)
        total = 0.0
        for c, (g, xk) in zip(coeff, shells):
            total += c * g * kernel(x, xk)
        return total

    # Fix the overall sign before normalizing: psi > 0 at the innermost
    # shell where it does not vanish.
    anchor = next((p for p in map(psi_hat, pot.radii) if p != 0.0), 0.0)
    sign = -1.0 if anchor < 0 else 1.0

    decay = 2.0 * w * m  # psi ~ exp(-w m r) far out
    norm_sq = integrate_semi_infinite(lambda r: psi_hat(r) ** 2, 0.0, decay, _NORM_TOL)
    if norm_sq.value <= 0:
        raise SingularPointError(f"normalization integral degenerate at w = {w!r}")
    n_const = sign / math.sqrt(norm_sq.value)

    def psi(r: float) -> float:
        if not 0 <= r < math.inf:
            raise DomainError(f"r must be {'non-negative' if r < 0 else 'finite'}, got {r}")
        return n_const * psi_hat(r)

    level = BoundLevel(
        j=v.j,
        w=w,
        two_body_energy=be.two_body_energy,
        residual=residual,
        psi_shell=tuple(psi(a) for a in pot.radii),
        norm_constant=abs(n_const),
    )
    return psi, level


def level_roots(j: int, m: float, pot: ShellPotential, n_scan: int = 2000) -> list[float]:
    """Level positions w of the shells: roots of det_bound scanned over w in
    (0, pi/2) on n_scan intervals, each refined by bisection.

    The grid is evaluated as one array determinant; the scalar det_bound
    decides every bracket, bisects it and rejects poles (find_roots_scan).
    """
    v = _variant(j)
    m, shells = _dimensionless(m, pot.shells)

    def det_of_w(w: float) -> float:
        return det_bound(v.j, BoundEnergy(m, w), pot)

    roots = find_roots_scan(det_of_w, BOUND_W_LO, BOUND_W_HI, n_scan=n_scan,
                            f_grid=partial(_det_array, v, shells))
    return [r.x for r in roots]


def solve_levels(
    j: int, m: float, pot: ShellPotential, n_scan: int = 2000
) -> list[BoundLevel]:
    """All bound levels of the shells, one per level_roots root."""
    return [bound_wavefunction(j, m, w, pot)[1] for w in level_roots(j, m, pot, n_scan)]


def _det_array(v: _Variant, shells, ws: np.ndarray) -> np.ndarray:
    """det_bound over an array of w for the reduced shells; overflows stay silent."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _det(_shell_matrix(shells, _array_kernel(v, ws)))


def _array_kernel(v: _Variant, ws: np.ndarray) -> Callable:
    """_kernel over an array of w."""
    return lambda x, xp: _partial_bound_array(v, ws, x - xp, x + xp)


def _w_grid(n: int) -> np.ndarray:
    if n < 2:
        raise DomainError(f"curve needs at least 2 samples, got {n}")
    return (math.pi / 2) * np.arange(1, n + 1) / (n + 1)


def sample_v0_curve(j: int, m: float, a: float, n: int = 2000) -> QuantCurve:
    """V0(w) = m / (m G(i w, a, a)) on the open w grid; poles and non-finite values flagged."""
    if not 0 < a < math.inf:
        raise DomainError(f"shell radius must be finite and positive, got {a}")
    ws = _w_grid(n)
    m, ((_, x),) = _dimensionless(m, ((0.0, a),))
    g = _array_kernel(_variant(j), ws)(x, x)
    with np.errstate(divide="ignore", over="ignore"):
        v0 = m * (1.0 / g)
    finite = np.isfinite(g) & np.isfinite(v0)
    return QuantCurve(ws, np.where(finite, v0, math.nan), finite)


def sample_v2_curve(
    j: int, m: float, a1: float, a2: float, v1: float, n: int = 2000
) -> QuantCurve:
    """V2(w) at fixed (V1, a1), poles and non-finite values flagged.

    The curve has a simple pole wherever its denominator crosses zero, so a
    sign change between neighbouring grid points brackets one.  The grid
    point closer to the crossing (smaller |den|) is flagged instead of its
    near-pole value; exact denominator zeros, like every other non-finite
    num / den, are flagged directly.  No absolute threshold: the branches
    next to an asymptote stay finite however large they grow.  V2 = (1 - V1
    G11) / (G22 + V1 (G12^2 - G11 G22)) is m times that of m G and V1 / m.
    """
    _check_finite("v1", v1)
    ws = _w_grid(n)
    m, g1, g11, g22, g12 = _pair(_array_kernel(_variant(j), ws), m, a1, a2, v1)
    with np.errstate(all="ignore"):
        num = 1.0 - g1 * g11
        den = g22 + g1 * (g12 * g12 - g11 * g22)
        v2 = m * (num / den)
    flagged = ~np.isfinite(v2)
    pos = den > 0.0
    # in grid order, since a flagged point ends the test of its neighbours
    for i in np.flatnonzero(pos[:-1] != pos[1:]):
        if flagged[i] or flagged[i + 1]:
            continue
        flagged[i if abs(den[i]) <= abs(den[i + 1]) else i + 1] = True
    return QuantCurve(ws, np.where(flagged, math.nan, v2), ~flagged)


def sample_det_curve(j: int, m: float, pot: ShellPotential, n: int = 2000) -> QuantCurve:
    """Quantization determinant over the w grid; non-finite values flagged."""
    ws = _w_grid(n)
    det = _det_array(_variant(j), _dimensionless(m, pot.shells)[1], ws)
    finite = np.isfinite(det)
    return QuantCurve(ws, np.where(finite, det, math.nan), finite)


def sample_v1pm_curve(
    j: int, m: float, a1: float, a2: float, alpha: float, n: int = 2000
) -> tuple[QuantCurve, QuantCurve]:
    """Both V1 branches over the w grid, as a (plus, minus) pair sharing w
    and finite; closed-discriminant gaps and non-finite roots flagged.  The
    roots are v1_pm_of_w's."""
    _check_alpha(alpha)
    ws = _w_grid(n)
    m, _, *g = _pair(_array_kernel(_variant(j), ws), m, a1, a2)
    plus, minus, _, closed = _v1pm_parts(*g, alpha)
    with np.errstate(over="ignore", invalid="ignore"):
        plus, minus = m * plus, m * minus
    finite = ~closed & np.isfinite(plus) & np.isfinite(minus)
    return (QuantCurve(ws, np.where(finite, plus, math.nan), finite),
            QuantCurve(ws, np.where(finite, minus, math.nan), finite))
