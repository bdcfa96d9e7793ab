"""Exact scattering observables for one- and two-radius delta-shell potentials.

For a potential V(r) = sum_k V_k delta(r - a_k) the s-wave integral equation
closes into a finite linear system at the shell radii.  With s(x) =
sin(chi m x) and G the half-line kernel, the shell values psi(a_k) solve

    psi(a_i) - sum_k V_k G(a_i, a_k) psi(a_k) = s(a_i),

so psi(a_k) = Delta_k / Delta by Cramer's rule, and the amplitude reads

    f = -2 sum_k V_k Delta_k s(a_k) / (q K_j Delta).

The S matrix follows two independent routes, S = 1 + 2 i q f and the
denominator-ratio form S = conj(Delta) / Delta; scatter_point computes both
and refuses to return if they disagree, which pins unitarity |S| = 1 and the
phase to machine accuracy.

Transparency (Ramsauer-Townsend) points are zeros of f.  For a single shell
they sit exactly at chi = pi n / (m a); for two shells they trace curves in
the (a_2, chi) plane located here by a marching-squares scan of the real
zero condition, evaluated on numpy arrays.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    AccuracyError,
    DomainError,
    PoleError,
    ThresholdError,
    UnsupportedFormError,
)
from .greens import _sech, green_partial, green_partial_real
from .kinematics import EquationVariant, Kinematics, k_factor

# Relative threshold below which a closed-form denominator counts as a pole.
_POLE_EPS = 1e-14
# Residual target for refined zero-locus vertices.
# Two decades below the 1e-8 the locus vertices are consumed at, so the
# emitted residuals never graze their own acceptance threshold.
_VERTEX_RESIDUAL = 1e-10
_MAX_EDGE_BISECT = 200
# Points per array evaluation of the zero condition; bounds the temporaries.
_FIELD_BLOCK = 4096


@dataclass(frozen=True)
class ShellPotential:
    """One or two delta shells, stored as (strength, radius) pairs.

    Shells are kept sorted by radius; two shells at exactly equal radii
    merge into one by adding strengths.  Radii must be positive.
    """

    shells: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not 1 <= len(self.shells) <= 2:
            raise DomainError(f"expected 1 or 2 shells, got {len(self.shells)}")
        norm = []
        for v, a in self.shells:
            v = float(v)
            a = float(a)
            if not (math.isfinite(v) and math.isfinite(a)):
                raise DomainError(f"shell ({v}, {a}) must be finite")
            if a <= 0:
                raise DomainError(f"shell radius must be positive, got {a}")
            norm.append((v, a))
        norm.sort(key=lambda s: s[1])
        if len(norm) == 2 and norm[0][1] == norm[1][1]:
            norm = [(norm[0][0] + norm[1][0], norm[0][1])]
        object.__setattr__(self, "shells", tuple(norm))

    @classmethod
    def single(cls, v0: float, a: float) -> "ShellPotential":
        return cls(((v0, a),))

    @classmethod
    def double(cls, v1: float, a1: float, v2: float, a2: float) -> "ShellPotential":
        return cls(((v1, a1), (v2, a2)))

    @property
    def strengths(self) -> tuple[float, ...]:
        return tuple(v for v, _ in self.shells)

    @property
    def radii(self) -> tuple[float, ...]:
        return tuple(a for _, a in self.shells)


@dataclass(frozen=True)
class DeltaSystem:
    """Cramer data of the shell system: determinant and its numerators."""

    delta: complex
    numerators: tuple[complex, ...]
    # rounding scale of delta: 1 + the magnitudes of the products summed
    # into it, so the pole test stays meaningful when |V G| is far from 1
    pole_scale: float = 1.0


@dataclass(frozen=True)
class ScatterPoint:
    """All on-shell observables at one rapidity."""

    j: int
    chi: float
    q: float
    f: complex
    s_matrix: complex
    sigma0: float
    phase: float


def delta_system(j: int, kin: Kinematics, pot: ShellPotential) -> DeltaSystem:
    """Determinant Delta and Cramer numerators Delta_k at this energy."""
    j = EquationVariant(j)
    m, chi = kin.m, kin.chi
    shells = pot.shells
    s = [math.sin(chi * m * a) for _, a in shells]
    if len(shells) == 1:
        v0, a = shells[0]
        g = green_partial(j, kin, a, a)
        return DeltaSystem(1.0 - v0 * g, (complex(s[0]),), 1.0 + abs(v0 * g))
    (v1, a1), (v2, a2) = shells
    g11 = green_partial(j, kin, a1, a1)
    g22 = green_partial(j, kin, a2, a2)
    g12 = green_partial(j, kin, a1, a2)
    delta = (1.0 - v1 * g11) * (1.0 - v2 * g22) - v1 * v2 * g12 * g12
    d1 = s[0] * (1.0 - v2 * g22) + s[1] * v2 * g12
    d2 = s[1] * (1.0 - v1 * g11) + s[0] * v1 * g12
    scale = (
        1.0
        + abs(v1 * g11)
        + abs(v2 * g22)
        + abs(v1 * g11) * abs(v2 * g22)
        + abs(v1 * v2 * g12 * g12)
    )
    return DeltaSystem(delta, (d1, d2), scale)


def _check_pole(sys: DeltaSystem, kin: Kinematics) -> None:
    if abs(sys.delta) < _POLE_EPS * sys.pole_scale:
        raise PoleError(
            f"shell determinant vanishes at chi = {kin.chi!r} "
            f"(|Delta| = {abs(sys.delta):.3e})"
        )


def amplitude(j: int, kin: Kinematics, pot: ShellPotential) -> complex:
    """Partial s-wave amplitude f_j(chi) from the shell linear system."""
    f, _ = _amplitude_parts(j, kin, pot)
    return f


def _amplitude_parts(
    j: int, kin: Kinematics, pot: ShellPotential
) -> tuple[complex, complex]:
    """Amplitude together with the system determinant (S = conj/den route)."""
    j = EquationVariant(j)
    if kin.chi == 0.0:
        raise ThresholdError("amplitude undefined at chi = 0 (elastic threshold)")
    sys = delta_system(j, kin, pot)
    _check_pole(sys, kin)
    m, chi = kin.m, kin.chi
    q = kin.q
    kj = k_factor(j, kin)
    num = 0.0
    for (v, a), dk in zip(pot.shells, sys.numerators):
        num += v * dk * math.sin(chi * m * a)
    f = -2.0 * num / (q * kj * sys.delta)
    return f, sys.delta


def amplitude_explicit(j: int, kin: Kinematics, pot: ShellPotential) -> complex:
    """Amplitude from the fully expanded closed forms.

    These spell out every hyperbolic factor instead of going through the
    kernel values, and exist as an independent route for cross-checking
    `amplitude`.  Single shell: all variants.  Two shells: only variant 3
    has a workable expanded form; other variants raise UnsupportedFormError.
    """
    j = EquationVariant(j)
    if kin.chi == 0.0:
        raise ThresholdError("amplitude undefined at chi = 0 (elastic threshold)")
    m, chi = kin.m, kin.chi
    q = kin.q
    kj = k_factor(j, kin)

    def s(x: float) -> float:
        return math.sin(chi * m * x)

    def th(x: float) -> float:
        return math.tanh(math.pi * m * x)

    if len(pot.shells) == 1:
        v0, a = pot.shells[0]
        s_a = s(a)
        if j == EquationVariant.LT:
            bracket = complex(s(2 * a) / th(a) - 2 * chi / math.pi, 2 * s_a * s_a)
        elif j == EquationVariant.K:
            # th(a/2)^2 / (1 + th(a/2)^2) rewritten as (1 - sech(pi m a)) / 2.
            bracket = complex(
                s(2 * a) / th(2 * a) - chi / math.pi
                - 0.5 * (1.0 - _sech(math.pi * m * a)) * math.sinh(chi),
                2 * s_a * s_a,
            )
        elif j == EquationVariant.MLT:
            bracket = complex(th(a) * s(2 * a), 2 * s_a * s_a)
        else:
            bracket = complex(s(2 * a) / th(2 * a) - chi / math.pi, 2 * s_a * s_a)
        den = kj + v0 * bracket
        if abs(den) < _POLE_EPS * (abs(kj) + abs(v0 * bracket) + 1.0):
            raise PoleError(f"expanded-form denominator vanishes at chi = {chi!r}")
        return -2.0 * v0 * s_a * s_a / (q * den)

    if j != EquationVariant.MLT:
        raise UnsupportedFormError(
            f"no expanded two-shell form for variant {int(j)}; use amplitude()"
        )
    (v1, a1), (v2, a2) = pot.shells
    s1, s2 = s(a1), s(a2)
    t1 = th(a1) * s(2 * a1)
    t2 = th(a2) * s(2 * a2)
    p = th((a2 - a1) / 2) * s(a2 - a1) - th((a2 + a1) / 2) * s(a2 + a1)
    f1 = v1 * s1 * s1 * (1 + v2 * t2 / kj) + v2 * s2 * s2 * (1 + v1 * t1 / kj)
    f2 = 2 * v1 * v2 * s1 * s2 * p / kj
    f3 = (1 + v1 * t1 / kj) * (1 + v2 * t2 / kj) - v1 * v2 * p * p / (kj * kj)
    f4 = (
        2 * v1 * s1 * s1 * (1 + v2 * t2 / kj) / kj
        + 2 * v2 * s2 * s2 * (1 + v1 * t1 / kj) / kj
        + 4 * v1 * v2 * s1 * s2 * p / (kj * kj)
    )
    den = complex(f3, f4)
    if abs(den) < _POLE_EPS * (abs(f3) + abs(f4) + 1.0):
        raise PoleError(f"expanded-form denominator vanishes at chi = {chi!r}")
    return -2.0 * (f1 + f2) / (q * kj * den)


def wavefunction(j: int, kin: Kinematics, pot: ShellPotential, r: float) -> complex:
    """Scattering wave psi(r) = sin(chi m r) + sum_k V_k G(r, a_k) psi(a_k).

    Normalized so psi -> sin(chi m r) + q f exp(i chi m r) for large r.
    """
    if r < 0:
        raise DomainError(f"r must be non-negative, got {r}")
    j = EquationVariant(j)
    sys = delta_system(j, kin, pot)
    _check_pole(sys, kin)
    m, chi = kin.m, kin.chi
    psi = complex(math.sin(chi * m * r))
    for (v, a), dk in zip(pot.shells, sys.numerators):
        psi += v * green_partial(j, kin, r, a) * dk / sys.delta
    return psi


def scatter_point(j: int, kin: Kinematics, pot: ShellPotential) -> ScatterPoint:
    """Amplitude, S matrix, cross section and principal phase at one rapidity.

    S is formed as 1 + 2 i q f and cross-checked against conj(Delta)/Delta;
    disagreement beyond 1e-12 raises AccuracyError rather than returning a
    silently broken point.
    """
    f, delta = _amplitude_parts(j, kin, pot)
    q = kin.q
    s_mat = 1.0 + 2j * q * f
    s_ratio = delta.conjugate() / delta
    if abs(s_mat - s_ratio) > 1e-12:
        raise AccuracyError(
            f"S-matrix routes disagree at chi = {kin.chi!r}: "
            f"|1 + 2iqf - conj(D)/D| = {abs(s_mat - s_ratio):.3e}"
        )
    sigma0 = 4.0 * math.pi * abs(f) ** 2
    phase = cmath.phase(s_mat) / 2.0
    return ScatterPoint(int(j), kin.chi, q, f, s_mat, sigma0, phase)


def sweep(j: int, m: float, pot: ShellPotential, chi_grid) -> list[ScatterPoint]:
    """Scatter points over a strictly increasing grid of positive rapidities.

    Phases are unwrapped along the grid: each principal value is shifted by
    the multiple of pi that brings it nearest its predecessor, so the
    reported phase is continuous wherever the grid resolves it.
    """
    grid = [float(c) for c in chi_grid]
    if not grid:
        raise DomainError("chi grid must be non-empty")
    if any(c <= 0 for c in grid):
        raise ThresholdError("chi grid values must be positive")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("chi grid must be strictly increasing")
    points = [scatter_point(j, Kinematics(m, c), pot) for c in grid]
    out = [points[0]]
    prev = points[0].phase
    for pt in points[1:]:
        shift = math.pi * round((prev - pt.phase) / math.pi)
        unwrapped = pt.phase + shift
        out.append(replace(pt, phase=unwrapped))
        prev = unwrapped
    return out


def single_shell_zero_rapidities(m: float, a: float, chi_max: float) -> list[float]:
    """Transparency rapidities chi = pi n / (m a), n >= 1, up to chi_max."""
    if m <= 0 or a <= 0:
        raise DomainError(f"m and a must be positive, got {m}, {a}")
    if chi_max <= 0:
        raise DomainError(f"chi_max must be positive, got {chi_max}")
    step = math.pi / (m * a)
    return [n * step for n in range(1, int(chi_max / step) + 1)]


def _zero_condition_raw(
    j: int, m: float, chi, v1: float, a1: float, v2: float, a2
) -> np.ndarray:
    """Two-shell transparency condition; chi and a2 are broadcast arrays.

    Continuous in a2 across a2 = a1 (the bracket cancels there and the value
    coalesces to the single-shell numerator (V1+V2) s^2), which matters for
    plane scans whose windows may touch a2 = a1 exactly.  Overflowing
    strengths give a non-finite value, not a warning.
    """
    with np.errstate(all="ignore"):
        s1 = np.sin(chi * m * a1)
        s2 = np.sin(chi * m * a2)
        g11 = green_partial_real(j, m, chi, a1, a1)
        g22 = green_partial_real(j, m, chi, a2, a2)
        g12 = green_partial_real(j, m, chi, a1, a2)
        return (
            v1 * s1 * s1
            + v2 * s2 * s2
            + v1 * v2 * (2 * s1 * s2 * g12 - s1 * s1 * g22 - s2 * s2 * g11)
        )


def zero_condition(j: int, kin: Kinematics, pot: ShellPotential) -> float:
    """Real function whose zeros are the transparency points of two shells.

    Equal to Re of the amplitude numerator; the imaginary parts cancel
    identically, so f = 0 exactly where this vanishes (away from poles):

        V1 s1^2 + V2 s2^2
        + V1 V2 [2 s1 s2 Re G12 - s1^2 Re G22 - s2^2 Re G11]
    """
    j = EquationVariant(j)
    if len(pot.shells) != 2:
        raise DomainError(
            "zero_condition needs two shells; single-shell zeros sit at "
            "chi = pi n / (m a), see single_shell_zero_rapidities"
        )
    (v1, a1), (v2, a2) = pot.shells
    return float(_zero_condition_raw(j, kin.m, kin.chi, v1, a1, v2, a2))


def zero_condition_explicit(kin: Kinematics, pot: ShellPotential) -> float:
    """Expanded variant-3 transparency condition (independent route).

    Spells out the hyperbolic factors of zero_condition for variant 3:

        V1 s1^2 + V2 s2^2 + (V1 V2 / K3) [
            2 s1 s2 (th((a2-a1)/2) s(a2-a1) - th((a2+a1)/2) s(a2+a1))
            + th(a1) s(2 a1) s2^2 + th(a2) s(2 a2) s1^2 ]

    with s(x) = sin(chi m x), th(x) = tanh(pi m x).  Cross-check route only.
    """
    if len(pot.shells) != 2:
        raise DomainError("zero_condition_explicit needs two shells")
    m, chi = kin.m, kin.chi
    if kin.chi == 0.0:
        raise ThresholdError("undefined at chi = 0")
    (v1, a1), (v2, a2) = pot.shells
    kj = k_factor(EquationVariant.MLT, kin)

    def s(x: float) -> float:
        return math.sin(chi * m * x)

    def th(x: float) -> float:
        return math.tanh(math.pi * m * x)

    s1, s2 = s(a1), s(a2)
    p = th((a2 - a1) / 2) * s(a2 - a1) - th((a2 + a1) / 2) * s(a2 + a1)
    bracket = 2 * s1 * s2 * p + th(a1) * s(2 * a1) * s2 * s2 + th(a2) * s(2 * a2) * s1 * s1
    return v1 * s1 * s1 + v2 * s2 * s2 + v1 * v2 * bracket / kj


@dataclass(frozen=True)
class ZeroLocus:
    """Polyline approximations of transparency curves in the (x, y) plane.

    x is the outer shell radius a2, y the rapidity chi.  Each curve is a
    tuple of (x, y, residual) vertices with residual = |zero condition|.
    """

    j: int
    curves: tuple[tuple[tuple[float, float, float], ...], ...]


# Marching-squares case table: corner bit k set means corner k is negative.
# Corners: 0 = (x0,y0), 1 = (x1,y0), 2 = (x1,y1), 3 = (x0,y1).
# Edges:   B = bottom, R = right, T = top, L = left.
_B, _R, _T, _L = 0, 1, 2, 3
_CASES: dict[int, tuple[tuple[int, int], ...]] = {
    0: (),
    1: ((_L, _B),),
    2: ((_B, _R),),
    3: ((_L, _R),),
    4: ((_T, _R),),
    6: ((_B, _T),),
    7: ((_L, _T),),
    8: ((_L, _T),),
    9: ((_B, _T),),
    11: ((_T, _R),),
    12: ((_L, _R),),
    13: ((_B, _R),),
    14: ((_L, _B),),
    15: (),
}


def _condition_at(j, m, v1, a1, v2, n, points) -> np.ndarray:
    """Zero condition at n points, _FIELD_BLOCK points at a time.

    points(k) gives the (a2, chi) coordinates of the point indices k, so a
    grid is never expanded into whole coordinate arrays.
    """
    out = np.empty(n)
    for lo in range(0, n, _FIELD_BLOCK):
        k = np.arange(lo, min(lo + _FIELD_BLOCK, n))
        x, y = points(k)
        out[lo:lo + len(k)] = _zero_condition_raw(j, m, y, v1, a1, v2, x)
    return out


def _refine_edge_zero(cond, neg, pos):
    """Bisect every crossing edge at once until |cond| < _VERTEX_RESIDUAL.

    neg and pos are (x, y) arrays of the edge ends where the condition is
    negative and non-negative; cond(n, points) evaluates it as _condition_at
    does.  Each edge follows its own midpoint sequence and stops at the
    first midpoint under the target; returns the (x, y, |cond|) rows of
    those midpoints, in edge order.
    """
    (neg_x, neg_y), (pos_x, pos_y) = neg, pos
    out = np.empty((3, len(neg_x)))
    todo = np.arange(len(neg_x))
    for _ in range(_MAX_EDGE_BISECT):
        mid_x = 0.5 * (neg_x + pos_x)
        mid_y = 0.5 * (neg_y + pos_y)
        f_mid = cond(len(mid_x), lambda k: (mid_x[k], mid_y[k]))
        res = np.abs(f_mid)
        done = res < _VERTEX_RESIDUAL
        out[:, todo[done]] = mid_x[done], mid_y[done], res[done]
        if done.all():
            return out
        left = ~done
        todo, mid_x, mid_y, res = todo[left], mid_x[left], mid_y[left], res[left]
        lower = f_mid[left] < 0
        neg_x = np.where(lower, mid_x, neg_x[left])
        neg_y = np.where(lower, mid_y, neg_y[left])
        pos_x = np.where(lower, pos_x[left], mid_x)
        pos_y = np.where(lower, pos_y[left], mid_y)
    raise AccuracyError(
        f"zero-locus vertex refinement stalled near (x, y) = "
        f"({float(mid_x[0])!r}, {float(mid_y[0])!r}) with residual {res[0]:.3e}"
    )


def scan_zero_locus(
    j: int,
    m: float,
    a1: float,
    v1: float,
    v2: float,
    a2_range: tuple[float, float],
    chi_range: tuple[float, float],
    grid: tuple[int, int] = (300, 300),
) -> ZeroLocus:
    """Trace the two-shell transparency curves over an (a2, chi) window.

    Evaluates the zero condition on the grid as numpy arrays, _FIELD_BLOCK
    points at a time, and runs marching squares on its sign.  Every edge
    whose ends differ in sign gets its vertex from one batched bisection
    over all such edges, each stopping at residual below _VERTEX_RESIDUAL
    (1e-10).  Segments are chained into polylines deterministically
    (smallest edge index first).

    With V2 = 0 (or V1 = 0) the condition is one-signed and sign-based
    scanning is blind, so the known degenerate zeros are emitted directly:
    lines chi = pi n / (m a1) for V2 = 0, curves chi = pi n / (m a2) for
    V1 = 0.  Both strengths zero is rejected.
    """
    j = EquationVariant(j)
    nx, ny = grid
    if nx < 16 or ny < 16:
        raise DomainError(f"grid must be at least 16 x 16, got {nx} x {ny}")
    x_lo, x_hi = map(float, a2_range)
    y_lo, y_hi = map(float, chi_range)
    if not all(map(math.isfinite, (m, a1, x_hi, y_hi))):
        raise DomainError(f"m, a1 and the window must be finite, got {m}, {a1}, "
                          f"{a2_range}, {chi_range}")
    if not (0 < x_lo < x_hi):
        raise DomainError(f"a2 range must satisfy 0 < lo < hi, got {a2_range}")
    if not (0 < y_lo < y_hi):
        raise DomainError(f"chi range must satisfy 0 < lo < hi, got {chi_range}")
    if m <= 0 or a1 <= 0:
        raise DomainError(f"m and a1 must be positive, got {m}, {a1}")
    if v1 == 0.0 and v2 == 0.0:
        raise DomainError("at least one shell strength must be non-zero")

    xs = x_lo + (x_hi - x_lo) * np.arange(nx) / (nx - 1)
    ys = y_lo + (y_hi - y_lo) * np.arange(ny) / (ny - 1)

    def cond(n, points):
        return _condition_at(j, m, v1, a1, v2, n, points)

    if v2 == 0.0 or v1 == 0.0:
        curves = []
        if v2 == 0.0:
            # Horizontal transparency lines of the remaining inner shell.
            n = 1
            while True:
                chi_n = math.pi * n / (m * a1)
                if chi_n > y_hi:
                    break
                if chi_n >= y_lo:
                    res = np.abs(cond(nx, lambda k: (xs[k], chi_n)))
                    curves.append(tuple(zip(xs.tolist(), [chi_n] * nx, res.tolist())))
                n += 1
        else:
            # Hyperbolas chi = pi n / (m a2) of the outer shell.
            n = 1
            while math.pi * n / (m * x_hi) <= y_hi:
                lo = max(x_lo, math.pi * n / (m * y_hi))
                hi = min(x_hi, math.pi * n / (m * y_lo))
                if lo <= hi:
                    px = np.array([lo] + [x for x in xs.tolist() if lo < x < hi] + [hi])
                    py = math.pi * n / (m * px)
                    res = np.abs(cond(len(px), lambda k: (px[k], py[k])))
                    curves.append(tuple(zip(px.tolist(), py.tolist(), res.tolist())))
                n += 1
        return ZeroLocus(int(j), tuple(curves))

    field = cond(nx * ny, lambda k: (xs[k // ny], ys[k % ny])).reshape(nx, ny)
    bad = np.argwhere(~np.isfinite(field))
    if len(bad):
        ix, iy = bad[0]
        raise AccuracyError(
            f"zero condition non-finite at (a2, chi) = ({float(xs[ix])}, {float(ys[iy])})"
        )

    n_h = (nx - 1) * ny  # horizontal edge count; vertical ids start after

    def h_edge(ix, iy):
        return iy * (nx - 1) + ix

    def v_edge(ix, iy):
        return n_h + iy * nx + ix

    # Vertices on every edge whose ends differ in sign, refined in one batch.
    neg = field < 0
    h_ix, h_iy = np.nonzero(neg[:-1, :] != neg[1:, :])
    v_ix, v_iy = np.nonzero(neg[:, :-1] != neg[:, 1:])
    lo_ix = np.concatenate([h_ix, v_ix])
    lo_iy = np.concatenate([h_iy, v_iy])
    hi_x = xs[np.concatenate([h_ix + 1, v_ix])]
    hi_y = ys[np.concatenate([h_iy, v_iy + 1])]
    lo_x, lo_y = xs[lo_ix], ys[lo_iy]
    lo_neg = neg[lo_ix, lo_iy]
    vx, vy, vr = _refine_edge_zero(
        cond,
        (np.where(lo_neg, lo_x, hi_x), np.where(lo_neg, lo_y, hi_y)),
        (np.where(lo_neg, hi_x, lo_x), np.where(lo_neg, hi_y, lo_y)),
    )
    edge_ids = np.concatenate([h_edge(h_ix, h_iy), v_edge(v_ix, v_iy)])
    vertices = dict(zip(edge_ids.tolist(), zip(vx.tolist(), vy.tolist(), vr.tolist())))

    # Marching-squares case per cell; segments in row order (chi, then a2).
    n8 = neg.view(np.uint8)
    case = n8[:-1, :-1] | n8[1:, :-1] << 1 | n8[1:, 1:] << 2 | n8[:-1, 1:] << 3
    cells_iy, cells_ix = np.nonzero((case.T != 0) & (case.T != 15))
    segments: list[tuple[int, int]] = []
    for iy, ix in zip(cells_iy.tolist(), cells_ix.tolist()):
        c = int(case[ix, iy])
        ids = (h_edge(ix, iy), v_edge(ix + 1, iy), h_edge(ix, iy + 1), v_edge(ix, iy))
        if c in (5, 10):
            f00, f10 = field[ix, iy], field[ix + 1, iy]
            f11, f01 = field[ix + 1, iy + 1], field[ix, iy + 1]
            center = 0.25 * (f00 + f10 + f11 + f01)
            if c == 5:
                segs = ((_L, _T), (_B, _R)) if center < 0 else ((_L, _B), (_T, _R))
            else:
                segs = ((_L, _B), (_T, _R)) if center < 0 else ((_L, _T), (_B, _R))
        else:
            segs = _CASES[c]
        for e_a, e_b in segs:
            segments.append((ids[e_a], ids[e_b]))

    curves = _chain_segments(segments, vertices)
    return ZeroLocus(int(j), curves)


def _chain_segments(segments, vertices):
    """Join edge-id segments into polylines; deterministic traversal order."""
    adj: dict[int, list[int]] = {}
    unused: set[tuple[int, int]] = set()
    for e1, e2 in segments:
        adj.setdefault(e1, []).append(e2)
        adj.setdefault(e2, []).append(e1)
        unused.add((min(e1, e2), max(e1, e2)))
    for nbrs in adj.values():
        nbrs.sort()

    remaining_deg = {e: len(nbrs) for e, nbrs in adj.items()}
    curves = []
    while unused:
        odd = sorted(e for e, d in remaining_deg.items() if d % 2 == 1 and d > 0)
        start = odd[0] if odd else min(e for e, d in remaining_deg.items() if d > 0)
        path = [start]
        current = start
        while True:
            nxt = None
            for cand in adj[current]:
                key = (min(current, cand), max(current, cand))
                if key in unused:
                    nxt = cand
                    break
            if nxt is None:
                break
            unused.discard((min(current, nxt), max(current, nxt)))
            remaining_deg[current] -= 1
            remaining_deg[nxt] -= 1
            path.append(nxt)
            current = nxt
        curves.append(tuple(vertices[e] for e in path))
    return tuple(curves)
