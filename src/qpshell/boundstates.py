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

from .errors import DomainError, SingularPointError
from .greens import _hyperbolic_ratio, _partial_bound, _sech, green_partial_bound
from .kinematics import (
    BOUND_W_HI,
    BOUND_W_LO,
    BoundEnergy,
    EquationVariant,
    k_factor_bound,
)
from .numerics import find_roots_scan, integrate_semi_infinite
from .scattering import ShellPotential, _adj_apply, _det, _shell_matrix


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
class QuantCurvePoint:
    """Sample of an inverse-strength curve; finite=False marks a pole."""

    w: float
    value: float
    finite: bool


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


def v0_of_w_explicit(j: int, be: BoundEnergy, a: float) -> float:
    """Single-shell strength from the fully reduced hyperbolic-ratio forms.

        j=1:  m sin(2w) / [2w/pi - 1 + sinh((pi-2w) m a)/sinh(pi m a)]
        j=2:  1 / ( [w/pi - 1 + sinh(2(pi-w) m a)/sinh(2 pi m a)]/(m sin 2w)
                    + [1 - sech(pi m a)]/(4 m cos w) )
        j=3:  2 m sin(w) / [cosh((pi-2w) m a)/cosh(pi m a) - 1]
        j=4:  2 m sin(w) / [w/pi - 1 + sinh(2(pi-w) m a)/sinh(2 pi m a)]

    Independent route to v0_of_w used for cross-checking.
    """
    j = EquationVariant(j)
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


def _kernel(j: int, be: BoundEnergy) -> Callable[[float, float], float]:
    """G(i w, r, r') with the variant and K_j(i w) resolved once."""
    return partial(_partial_bound, j, be.m, be.w, k_factor_bound(j, be))


def det_bound(j: int, be: BoundEnergy, pot: ShellPotential) -> float:
    """Quantization determinant det[1 - G V] at this w (real)."""
    return _det(_shell_matrix(pot, _kernel(j, be)))


def _v2_parts(
    j: EquationVariant, be: BoundEnergy, a1: float, a2: float, v1: float
) -> tuple[float, float, float]:
    """Numerator, denominator and denominator term scale of the V2 curve."""
    if not 0 < a1 < a2:
        raise DomainError(f"radii must satisfy 0 < a1 < a2, got {a1}, {a2}")
    g11 = green_partial_bound(j, be, a1, a1)
    g22 = green_partial_bound(j, be, a2, a2)
    g12 = green_partial_bound(j, be, a1, a2)
    den = g22 + v1 * (g12 * g12 - g11 * g22)
    num = 1.0 - v1 * g11
    scale = abs(g22) + abs(v1) * (g12 * g12 + abs(g11 * g22))
    return num, den, scale


def v2_of_w(j: int, be: BoundEnergy, a1: float, a2: float, v1: float) -> float:
    """Outer strength placing a level at w for fixed inner shell (V1, a1).

    Solves det = 0 for V2:  V2 = (1 - V1 G11) / (G22 + V1 (G12^2 - G11 G22)).
    Pole abscissae of the curve raise SingularPointError; the pole test is
    relative (12 cancelled digits), since a fixed absolute threshold says
    nothing about O(1) kernel values.
    """
    j = EquationVariant(j)
    num, den, scale = _v2_parts(j, be, a1, a2, v1)
    if den == 0.0 or abs(den) < 1e-12 * scale:
        raise SingularPointError(f"V2 curve has a pole at w = {be.w!r}")
    return num / den


def v1_pm_of_w(j: int, be: BoundEnergy, a1: float, a2: float, alpha: float):
    """Both V1 branches under the tied-strength constraint V2 = alpha V1.

    det = 0 becomes  alpha (G11 G22 - G12^2) V1^2 - (G11 + alpha G22) V1 + 1
    = 0.  The discriminant rearranges to (G11 - alpha G22)^2 + 4 alpha G12^2,
    manifestly non-negative for alpha >= 0.  Returns None when it is
    negative (possible only for alpha < 0): no real strength binds at w.
    Roots are evaluated in the cancellation-free form and labeled so that
    `plus`/`minus` carry the +/- sign of the quadratic formula.
    """
    j = EquationVariant(j)
    if alpha == 0.0:
        raise DomainError("alpha must be non-zero (V2 = alpha V1 with two shells)")
    if not 0 < a1 < a2:
        raise DomainError(f"radii must satisfy 0 < a1 < a2, got {a1}, {a2}")
    g11 = green_partial_bound(j, be, a1, a1)
    g22 = green_partial_bound(j, be, a2, a2)
    g12 = green_partial_bound(j, be, a1, a2)
    qa = alpha * (g11 * g22 - g12 * g12)
    qb = -(g11 + alpha * g22)
    qc = 1.0
    disc = (g11 - alpha * g22) ** 2 + 4.0 * alpha * g12 * g12
    if disc < 0.0:
        return None
    scale_a = abs(alpha) * (abs(g11 * g22) + g12 * g12)
    if qa == 0.0 or abs(qa) < 1e-14 * (scale_a + 0.25 * qb * qb):
        if qb == 0.0:
            raise SingularPointError(f"quadratic degenerates entirely at w = {be.w!r}")
        root = -qc / qb
        return V1Roots(plus=root, minus=root, degenerate=True)
    sqrt_d = math.sqrt(disc)
    qq = -0.5 * (qb + math.copysign(sqrt_d, qb))
    if qb >= 0:
        minus, plus = qq / qa, qc / qq
    else:
        plus, minus = qq / qa, qc / qq
    return V1Roots(plus=plus, minus=minus)


def bound_wavefunction(
    j: int,
    m: float,
    w: float,
    pot: ShellPotential,
    residual_tol: float = 1e-8,
    norm_tol: float = 1e-10,
) -> tuple[Callable[[float], float], BoundLevel]:
    """Normalized bound wave function at a quantization point (m, w, pot).

    Returns (psi, level).  psi is a plain callable; level records the
    quantization residual |det|, psi evaluated at the shells and the
    normalization constant applied to the kernel superposition.  A residual
    above residual_tol means (m, w, pot) is not on the quantization surface
    and is rejected; the normalization integral must converge to norm_tol.
    """
    j = EquationVariant(j)
    be = BoundEnergy(m, w)
    shells = pot.shells
    kernel = _kernel(j, be)
    mat = _shell_matrix(pot, kernel)
    residual = abs(_det(mat))
    if residual > residual_tol:
        raise DomainError(
            f"(m, w) = ({m}, {w}) is not a quantization point of this "
            f"potential: |det| = {residual:.3e} > {residual_tol:.1e}"
        )
    # A adj(A) = det(A) = 0: every adjugate column is a null vector of A;
    # the largest is the best conditioned.
    n = len(mat)
    columns = (_adj_apply(mat, [float(i == k) for i in range(n)]) for k in range(n))
    coeff = max(columns, key=lambda c: sum(x * x for x in c))
    if not any(coeff):
        raise SingularPointError(f"quantization matrix vanishes identically at w = {w!r}")

    def psi_hat(r: float) -> float:
        total = 0.0
        for c, (v, a) in zip(coeff, shells):
            total += c * v * kernel(r, a)
        return total

    # Fix the overall sign before normalizing: psi > 0 at the innermost
    # shell where it does not vanish.
    anchor = next((p for p in map(psi_hat, pot.radii) if p != 0.0), 0.0)
    sign = -1.0 if anchor < 0 else 1.0

    decay = 2.0 * w * m  # psi ~ exp(-w m r) far out
    norm_sq = integrate_semi_infinite(lambda r: psi_hat(r) ** 2, 0.0, decay, norm_tol)
    if norm_sq.value <= 0:
        raise SingularPointError(f"normalization integral degenerate at w = {w!r}")
    n_const = sign / math.sqrt(norm_sq.value)

    def psi(r: float) -> float:
        if r < 0:
            raise DomainError(f"r must be non-negative, got {r}")
        return n_const * psi_hat(r)

    level = BoundLevel(
        j=int(j),
        w=w,
        two_body_energy=be.two_body_energy,
        residual=residual,
        psi_shell=tuple(psi(a) for _, a in shells),
        norm_constant=abs(n_const),
    )
    return psi, level


def solve_levels(
    j: int, m: float, pot: ShellPotential, n_scan: int = 2000
) -> list[BoundLevel]:
    """All bound levels of the shells: roots of det_bound scanned over w in
    (0, pi/2) on n_scan intervals, each refined by bisection."""
    j = EquationVariant(j)
    if m <= 0:
        raise DomainError(f"m must be positive, got {m}")

    def det_of_w(w: float) -> float:
        return det_bound(j, BoundEnergy(m, w), pot)

    roots = find_roots_scan(det_of_w, BOUND_W_LO, BOUND_W_HI, n_scan=n_scan)
    return [bound_wavefunction(j, m, r.x, pot)[1] for r in roots]


def _w_grid(n: int) -> list[float]:
    if n < 2:
        raise DomainError(f"curve needs at least 2 samples, got {n}")
    return [(math.pi / 2) * k / (n + 1) for k in range(1, n + 1)]


def sample_v0_curve(j: int, m: float, a: float, n: int = 2000) -> list[QuantCurvePoint]:
    """V0(w) sampled on an open uniform grid; poles flagged, not raised."""
    out = []
    for w in _w_grid(n):
        try:
            out.append(QuantCurvePoint(w, v0_of_w(j, BoundEnergy(m, w), a), True))
        except SingularPointError:
            out.append(QuantCurvePoint(w, math.nan, False))
    return out


def sample_v2_curve(
    j: int, m: float, a1: float, a2: float, v1: float, n: int = 2000
) -> list[QuantCurvePoint]:
    """V2(w) at fixed (V1, a1), pole abscissae flagged via finite=False.

    The curve has a simple pole wherever its denominator crosses zero, so a
    sign change between neighbouring grid points brackets one.  The grid
    point closer to the crossing (smaller |den|) is flagged instead of its
    near-pole value; exact denominator zeros are flagged directly.  No
    absolute threshold: the branches next to an asymptote stay finite
    however large they grow.
    """
    jj = EquationVariant(j)
    ws = _w_grid(n)
    nums, dens = [], []
    for w in ws:
        num, den, _ = _v2_parts(jj, BoundEnergy(m, w), a1, a2, v1)
        nums.append(num)
        dens.append(den)
    flagged = [den == 0.0 for den in dens]
    for i in range(len(ws) - 1):
        if flagged[i] or flagged[i + 1]:
            continue
        if (dens[i] > 0.0) != (dens[i + 1] > 0.0):
            k = i if abs(dens[i]) <= abs(dens[i + 1]) else i + 1
            flagged[k] = True
    return [
        QuantCurvePoint(w, math.nan, False) if bad else QuantCurvePoint(w, num / den, True)
        for w, num, den, bad in zip(ws, nums, dens, flagged)
    ]


def sample_det_curve(
    j: int, m: float, pot: ShellPotential, n: int = 2000
) -> list[QuantCurvePoint]:
    """Quantization determinant over the w grid; finite everywhere."""
    return [
        QuantCurvePoint(w, det_bound(j, BoundEnergy(m, w), pot), True)
        for w in _w_grid(n)
    ]


def sample_v1pm_curve(
    j: int, m: float, a1: float, a2: float, alpha: float, n: int = 2000
) -> tuple[list[QuantCurvePoint], list[QuantCurvePoint]]:
    """Both V1 branches over the w grid; closed-discriminant gaps flagged."""
    plus, minus = [], []
    for w in _w_grid(n):
        try:
            roots = v1_pm_of_w(j, BoundEnergy(m, w), a1, a2, alpha)
        except SingularPointError:
            roots = None
        if roots is None:
            plus.append(QuantCurvePoint(w, math.nan, False))
            minus.append(QuantCurvePoint(w, math.nan, False))
        else:
            plus.append(QuantCurvePoint(w, roots.plus, True))
            minus.append(QuantCurvePoint(w, roots.minus, True))
    return plus, minus
