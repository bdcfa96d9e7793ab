"""Exact scattering observables for superpositions of delta shells.

For a potential V(r) = sum_k V_k delta(r - a_k), k = 1..N, the s-wave
integral equation closes into an N x N linear system at the shell radii.
With s_k = sin(chi m a_k) and G the half-line kernel, the shell values solve

    psi(a_i) - sum_k G(a_i, a_k) V_k psi(a_k) = s_i.

On the scattering branch Im G = -kappa s s^T with kappa = 2 / K_j, so the
system matrix is A + i kappa s (V s)^T with the real K-matrix A = 1 - Re G V.
The matrix-determinant lemma gives its determinant D = det A + i c with
c = kappa (V s)^T adj(A) s, and everything before the last division is real:

    psi(a_k) = (adj(A) s)_k / D,    f = -c / (q D),    S = conj(D) / D.

S = 1 + 2 i q f and conj(D) / D agree by construction; sweep forms both, so
the comparison only rejects non-finite values.  The system uses only + - *
(_k_parts), so it is assembled once, in _real_system, with numpy arrays over
a rapidity grid (sweep) or a single rapidity (delta_system); scatter_point
and amplitude read a one-point sweep.  The tests check it against numpy's
determinant of 1 - G V with the scalar complex kernel green_partial.  The
bound branch (`boundstates`) and the Schroedinger limit (`nonrel`) solve the
same real system with their own kernels.  Determinants and adjugates are
taken by cofactor expansion, whose cost grows as N!, so the system is meant
for a few shells: one scatter_point takes about 0.5 ms at N = 4, 8 ms at
N = 6 and 0.65 s at N = 8 on a 2-vCPU VM.

Transparency (Ramsauer-Townsend) points are zeros of f.  For a single shell
they sit exactly at chi = pi n / (m a); for two shells they trace curves in
the (a_2, chi) plane located here by a marching-squares scan of the real
zero condition, evaluated on numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (
    AccuracyError,
    DomainError,
    PoleError,
    ThresholdError,
    UnsupportedFormError,
)
from .greens import (_check_reach, _partial_re_array, _real_factors, _sech,
                     green_partial, green_partial_real)
from .kinematics import EquationVariant, Kinematics, _Variant, _variant, k_factor

# Relative threshold below which a closed-form denominator counts as a pole.
_POLE_EPS = 1e-14
# Residual target for refined zero-locus vertices.
# Two decades below the 1e-8 the locus vertices are consumed at, so the
# emitted residuals never graze their own acceptance threshold.
_VERTEX_RESIDUAL = 1e-10
_MAX_EDGE_BISECT = 200
# Above this sine argument the spacing of floats is 2, so sin is noise.
_MAX_SINE_ARG = 2.0 ** 53
# Points per array evaluation of the zero condition; bounds the temporaries.
_FIELD_BLOCK = 4096


@dataclass(frozen=True)
class ShellPotential:
    """One or more delta shells, stored as (strength, radius) pairs.

    Shells are kept sorted by radius; shells at exactly equal radii merge
    into one by adding strengths.  Radii must be positive.
    """

    shells: tuple[tuple[float, float], ...]

    def __post_init__(self):
        merged = []
        for v, a in sorted(((float(v), float(a)) for v, a in self.shells),
                           key=lambda s: s[1]):
            if not (math.isfinite(v) and math.isfinite(a)):
                raise DomainError(f"shell ({v}, {a}) must be finite")
            if a <= 0:
                raise DomainError(f"shell radius must be positive, got {a}")
            if merged and merged[-1][1] == a:
                merged[-1] = (merged[-1][0] + v, a)
            else:
                merged.append((v, a))
        if not merged:
            raise DomainError("expected at least one shell")
        object.__setattr__(self, "shells", tuple(merged))

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
    """D = det A + i c and adj(A) s; the shell values are numerators / delta."""

    delta: complex
    numerators: tuple[float, ...]
    # rounding scale of delta: 1 + the product of the row sums of |A| (a
    # bound on every product summed into det A) + |c|, so the pole test
    # stays meaningful when |V G| is far from 1
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


@dataclass(frozen=True)
class ScatterSweep:
    """The observables of ScatterPoint over a rapidity grid, as read-only
    numpy columns of equal length (phase unwrapped along the grid)."""

    j: int
    chi: np.ndarray
    q: np.ndarray
    f: np.ndarray
    s_matrix: np.ndarray
    sigma0: np.ndarray
    phase: np.ndarray

    def __post_init__(self):
        for col in self.columns():
            col.flags.writeable = False

    def columns(self) -> tuple[np.ndarray, ...]:
        return (self.chi, self.q, self.f, self.s_matrix, self.sigma0, self.phase)


def _shell_matrix(pot: ShellPotential, kernel) -> list[list[float]]:
    """A = 1 - G V; kernel(r, r') is a real symmetric G, called once per pair."""
    shells = pot.shells
    mat = [[0.0 for _ in shells] for _ in shells]
    for i, (vi, ri) in enumerate(shells):
        mat[i][i] = 1.0 - kernel(ri, ri) * vi
        for k in range(i + 1, len(mat)):
            vk, rk = shells[k]
            g = kernel(ri, rk)
            mat[i][k], mat[k][i] = -g * vk, -g * vi
    return mat


def _det(a: list[list[float]]) -> float:
    """det A by cofactor expansion along the first row."""
    n = len(a)
    if n == 1:
        return a[0][0]
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    total = 0.0
    for k in range(n):
        minor = [row[:k] + row[k + 1:] for row in a[1:]]
        total += (-1) ** k * a[0][k] * _det(minor)
    return total


def _adj_apply(a: list[list[float]], b: list[float]) -> list[float]:
    """adj(A) b by Cramer's rule: det A with column k replaced by b, each k."""
    return [_det([row[:k] + [bi] + row[k + 1:] for row, bi in zip(a, b)])
            for k in range(len(a))]


def _k_parts(a, s, kappa, pot: ShellPotential):
    """det A, c = kappa (V s)^T adj(A) s, adj(A) s and the pole scale of
    D = det A + i c, for Im G = -kappa s s^T.  Only + - * and abs, so the
    entries may be floats or numpy arrays alike."""
    nums = _adj_apply(a, s)
    c = 0.0
    for (v, _), sk, nk in zip(pot.shells, s, nums):
        c += v * sk * nk
    c *= kappa
    scale = 1.0 + math.prod(sum(map(abs, row)) for row in a) + abs(c)
    return _det(a), c, nums, scale


def _real_system(v: _Variant, m: float, chi: np.ndarray, pot: ShellPotential):
    """The real K-matrix system over a 0-d or 1-d array of rapidities.

    The array kernel (_partial_re_array, the core of green_partial_real)
    fills A, and _k_parts gives det A, c, adj(A) s and the pole scale.
    Returns those with the index n of the first rapidity whose chi, K_j,
    kappa = 2 / K_j or chi m 2a_N (the widest kernel argument, a_N the
    outermost radius) is not finite, and a function that raises its
    DomainError (ThresholdError for kappa); n = chi.size and None when there
    is none.  The values from n on must not be read.
    """
    a_n = pot.shells[-1][1]
    with np.errstate(all="ignore"):
        kj, sech_den = _real_factors(v, m, chi)
        kappa = 2.0 / kj
        stop = ~(np.isfinite(chi) & np.isfinite(kj) & np.isfinite(kappa)
                 & np.isfinite(chi * (m * (a_n + a_n))))
        a = _shell_matrix(pot, partial(_partial_re_array, v, m, chi, kj, sech_den))
        s = [np.sin(chi * m * r) for r in pot.radii]
        parts = _k_parts(a, s, kappa, pot)
    if not stop.any():
        return *parts, chi.size, None
    n = int(np.argmax(stop))
    chi_n, kj_n = float(chi.flat[n]), float(kj.flat[n])

    def refuse():
        if not math.isfinite(chi_n):
            raise DomainError(f"chi must be finite, got {chi_n!r}")
        if not math.isfinite(kj_n):
            raise DomainError(
                f"rapidity too large: K_{v.j} overflows at chi = {chi_n!r}, m = {m!r}")
        _check_reach(chi_n, m, a_n, a_n)
        raise ThresholdError(f"2 / K_{v.j} overflows at chi = {chi_n!r}, m = {m!r}: "
                             f"K_{v.j} = {kj_n!r} is too close to the elastic threshold")

    return *parts, n, refuse


def delta_system(j: int, kin: Kinematics, pot: ShellPotential) -> DeltaSystem:
    """The real K-matrix system at this energy (see the module docstring).

    chi = 0, or a K_j so small that 2 / K_j overflows, raises ThresholdError;
    an overflowing K_j, or a chi m 2a_N beyond the float range, raises
    DomainError, as k_factor and green_line do."""
    v = _variant(j)
    if kin.chi == 0.0:
        raise ThresholdError("k_factor vanishes at chi = 0 (elastic threshold)")
    det, c, nums, scale, _, refuse = _real_system(v, kin.m, np.asarray(kin.chi), pot)
    if refuse is not None:
        refuse()
    return DeltaSystem(complex(det, c), tuple(map(float, nums)), float(scale))


def _check_pole(sys: DeltaSystem, name: str, value: float) -> None:
    if abs(sys.delta) < _POLE_EPS * sys.pole_scale:
        raise _pole_error(name, value, abs(sys.delta))


def _pole_error(name: str, value: float, abs_delta: float) -> PoleError:
    return PoleError(
        f"shell determinant vanishes at {name} = {value!r} (|Delta| = {abs_delta:.3e})"
    )


def _s_route_error(chi: float, err: float) -> AccuracyError:
    return AccuracyError(
        f"S-matrix routes disagree at chi = {chi!r}: |1 + 2iqf - conj(D)/D| = {err:.3e}"
    )


def amplitude(j: int, kin: Kinematics, pot: ShellPotential) -> complex:
    """Partial s-wave amplitude f_j(chi): the f of scatter_point."""
    return scatter_point(j, kin, pot).f


def amplitude_explicit(j: int, kin: Kinematics, pot: ShellPotential) -> complex:
    """Amplitude from the fully expanded closed forms.

    These spell out every hyperbolic factor instead of going through the
    kernel values, and exist as an independent route for cross-checking
    `amplitude`.  Single shell: all variants.  Two shells: only variant 3
    has a workable expanded form; other variants, and three or more shells,
    raise UnsupportedFormError.
    """
    j = EquationVariant(_variant(j).j)
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

    if len(pot.shells) > 2:
        raise UnsupportedFormError(
            f"no expanded form for {len(pot.shells)} shells; use amplitude()"
        )
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
    if not 0 <= r < math.inf:
        raise DomainError(f"r must be {'non-negative' if r < 0 else 'finite'}, got {r}")
    sys = delta_system(j, kin, pot)
    _check_pole(sys, "chi", kin.chi)
    m, chi = kin.m, kin.chi
    psi = complex(math.sin(chi * m * r))
    for (v, a), dk in zip(pot.shells, sys.numerators):
        psi += v * green_partial(j, kin, r, a) * dk / sys.delta
    return psi


def scatter_point(j: int, kin: Kinematics, pot: ShellPotential) -> ScatterPoint:
    """Amplitude, S matrix, cross section and principal phase at one
    rapidity: row 0 of a one-point sweep, with its refusals.  chi = 0 raises
    ThresholdError."""
    if kin.chi == 0.0:
        raise ThresholdError("amplitude undefined at chi = 0 (elastic threshold)")
    sw = sweep(j, kin.m, pot, [kin.chi])
    return ScatterPoint(sw.j, *(col[0].item() for col in sw.columns()))


def sweep(j: int, m: float, pot: ShellPotential, chi_grid) -> ScatterSweep:
    """Amplitude, S matrix, cross section and phase over a strictly
    increasing grid of positive rapidities.

    The grid is evaluated at once: _real_system fills the shell system with
    arrays over chi, and every observable is a numpy column.  The first
    failing rapidity decides the outcome as a point-by-point loop would: a
    non-finite chi, an overflowing K_j or a non-finite chi m 2a_N
    (DomainError), an overflowing 2 / K_j (ThresholdError), a pole
    (PoleError), a non-finite S (AccuracyError) or an overflowing cross
    section 4 pi |f|^2 (DomainError).
    S is formed as 1 + 2 i q f and compared with conj(D)/D.  Both come from
    the same D = det A + i c, so they agree by construction and the
    comparison only rejects non-finite values.  It does not guard accuracy:
    digits the kernel loses before D is formed, e.g. to cancellation at
    small m a, are lost from both routes alike.

    Phases are unwrapped along the grid: each principal value is shifted by
    the multiple of pi that brings it nearest its predecessor, so the
    reported phase is continuous wherever the grid resolves it.
    """
    v = _variant(j)
    grid = [float(c) for c in chi_grid]
    if not grid:
        raise DomainError("chi grid must be non-empty")
    if any(c <= 0 for c in grid):
        raise ThresholdError("chi grid values must be positive")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("chi grid must be strictly increasing")
    m = float(m)
    if not (math.isfinite(m) and m > 0):
        raise DomainError(f"mass must be finite and positive, got {m!r}")
    chi = np.array(grid)
    # squeezed, a one-point grid runs on numpy scalars, which cost less
    det, c, _, scale, n, refuse = _real_system(v, m, chi.squeeze(), pot)
    with np.errstate(all="ignore"):
        delta = np.empty(len(grid), dtype=complex)
        delta.real, delta.imag = det, c
        q = m * np.sinh(chi)
        f = -c / (q * delta)
        s_mat = 1.0 + 2j * q * f
        err = np.abs(s_mat - delta.conj() / delta)
        pole = np.hypot(delta.real, delta.imag) < _POLE_EPS * scale
        sigma0 = 4.0 * math.pi * np.hypot(f.real, f.imag) ** 2
    # a pole, S or sigma0 failure before the first refused rapidity n decides first
    s_bad = ~(err <= 1e-12)
    bad = (pole | s_bad | ~np.isfinite(sigma0))[:n]
    if bad.any():
        k = int(np.argmax(bad))
        if pole[k]:
            raise _pole_error("chi", float(chi[k]), abs(complex(delta[k])))
        if s_bad[k]:
            raise _s_route_error(float(chi[k]), float(err[k]))
        raise DomainError(f"cross section 4 pi |f|^2 overflows at chi = {float(chi[k])!r}: "
                          f"|f| = {abs(complex(f[k])):.3e}")
    if refuse is not None:
        refuse()
    phase = (np.angle(s_mat) / 2.0).tolist()
    for i in range(1, n):
        phase[i] += math.pi * round((phase[i - 1] - phase[i]) / math.pi)
    return ScatterSweep(v.j, chi, q, f, s_mat, sigma0, np.array(phase))


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
    chi, a2 = np.broadcast_arrays(chi, a2)
    a1s = np.full(a2.shape, a1)
    # one kernel call over (r, r') = (a1, a1), (a2, a2), (a1, a2): in this
    # order a reach refusal names the first pair out of reach
    g11, g22, g12 = green_partial_real(j, m, chi, np.stack([a1s, a2, a1s]),
                                       np.stack([a1s, a2, a2]))
    with np.errstate(all="ignore"):
        s1 = np.sin(chi * m * a1)
        s2 = np.sin(chi * m * a2)
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


def _stalled(point, residual) -> AccuracyError:
    return AccuracyError(
        f"zero-locus vertex refinement stalled near (x, y) = "
        f"({float(point[0])!r}, {float(point[1])!r}) with residual {residual:.3e}"
    )


def _refine_edge_zero(cond, neg, pos, f_neg, f_pos):
    """Refine a zero on every crossing edge by batched Illinois regula falsi.

    Each edge runs along x or along y.  neg and pos are (x, y) arrays of its
    ends, where the condition takes the values f_neg < 0 and f_pos >= 0, and
    cond(n, points) evaluates it as _condition_at does.  Each round evaluates
    one point per open edge, all in one call: the false-position point of the
    edge's bracket, or its midpoint when that point is not strictly inside.
    The point replaces the bracket end of its sign, and when the same end
    moves twice in a row the value kept at the other end is halved (the
    Illinois rule).  An edge stops at the first point with |cond| below
    _VERTEX_RESIDUAL, or at its positive end if that is an exact zero.
    Returns the (x, y, |cond|) rows of those points, in edge order.  An edge
    whose midpoint is one of its ends cannot shrink further and raises
    AccuracyError at once, as does any edge still open after
    _MAX_EDGE_BISECT rounds.
    """
    neg, pos = np.array(neg, dtype=float), np.array(pos, dtype=float)
    out = np.empty((3, neg.shape[1]))
    exact = f_pos == 0.0
    out[:2, exact], out[2, exact] = pos[:, exact], 0.0
    todo = np.flatnonzero(~exact)
    neg, pos, f_neg, f_pos = neg[:, todo], pos[:, todo], f_neg[todo], f_pos[todo]
    point, res = neg, -f_neg  # each edge's latest point, for the stall message
    moved = np.zeros(len(todo))  # the end that moved last: -1 negative, +1 positive

    def strictly_inside(p):
        # on an axis-parallel edge: between its ends and equal to neither
        return ((p - neg) * (pos - p)).sum(axis=0) > 0

    for _ in range(_MAX_EDGE_BISECT):
        if not len(todo):
            return out
        with np.errstate(all="ignore"):
            trial = neg + f_neg / (f_neg - f_pos) * (pos - neg)
            inside = strictly_inside(trial)
            if not inside.all():
                mid = 0.5 * (neg + pos)
                stuck = ~(inside | strictly_inside(mid))
                if stuck.any():
                    k = np.argmax(stuck)
                    raise _stalled(point[:, k], res[k])
                trial = np.where(inside, trial, mid)
        point = trial
        f = cond(len(todo), lambda k: (point[0, k], point[1, k]))
        res = np.abs(f)
        done = res < _VERTEX_RESIDUAL
        finished = todo[done]
        out[:2, finished], out[2, finished] = point[:, done], res[done]
        left = ~done
        todo, point, res, f = todo[left], point[:, left], res[left], f[left]
        lower = f < 0
        side = np.where(lower, -1.0, 1.0)
        illinois = np.where(side == moved[left], 0.5, 1.0)
        f_neg = np.where(lower, f, illinois * f_neg[left])
        f_pos = np.where(lower, illinois * f_pos[left], f)
        neg = np.where(lower, point, neg[:, left])
        pos = np.where(lower, pos[:, left], point)
        moved = side
    raise _stalled(point[:, 0], res[0])


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
    points at a time, and contours its sign.  Every edge whose ends differ
    in sign gets its vertex from one batched Illinois regula falsi over all
    such edges (_refine_edge_zero), which starts from the field values at
    the edge ends and stops each edge at residual below _VERTEX_RESIDUAL
    (1e-10).  A window whose largest sine argument, chi m (a + a) at the
    top rapidity and the larger radius, exceeds 2^53 is refused with
    DomainError: sin keeps no significant digit there.  A cell with
    two crossing edges joins them; a saddle (four) pairs them by the sign of
    its corner mean.  The segments are walked into open paths, then closed
    loops (see _chain_segments), so the curve order is deterministic.

    With V2 = 0 (or V1 = 0) the condition is one-signed and sign-based
    scanning is blind, so the known degenerate zeros are emitted directly:
    lines chi = pi n / (m a1) for V2 = 0, curves chi = pi n / (m a2) for
    V1 = 0.  Both strengths zero is rejected.
    """
    j = _variant(j).j
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
    # the largest sine argument of the field is chi m (r + r') at r = r' = a
    a_max = max(a1, x_hi)
    _check_reach(y_hi, m, a_max, a_max)
    reach = y_hi * (m * (a_max + a_max))
    if reach > _MAX_SINE_ARG:
        raise DomainError(
            f"chi m (r + r') reaches {reach:.3e} at chi = {y_hi!r}, m = {m!r}, "
            f"r = r' = {a_max!r}; above 2^53 sin keeps no significant digit"
        )

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
        return ZeroLocus(j, tuple(curves))

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
    h_cross = neg[:-1, :] != neg[1:, :]
    v_cross = neg[:, :-1] != neg[:, 1:]
    h_ix, h_iy = np.nonzero(h_cross)
    v_ix, v_iy = np.nonzero(v_cross)
    lo_ix = np.concatenate([h_ix, v_ix])
    lo_iy = np.concatenate([h_iy, v_iy])
    hi_ix = np.concatenate([h_ix + 1, v_ix])
    hi_iy = np.concatenate([h_iy, v_iy + 1])
    lo_neg = neg[lo_ix, lo_iy]
    neg_ix, neg_iy = np.where(lo_neg, lo_ix, hi_ix), np.where(lo_neg, lo_iy, hi_iy)
    pos_ix, pos_iy = np.where(lo_neg, hi_ix, lo_ix), np.where(lo_neg, hi_iy, lo_iy)
    vx, vy, vr = _refine_edge_zero(
        cond, (xs[neg_ix], ys[neg_iy]), (xs[pos_ix], ys[pos_iy]),
        field[neg_ix, neg_iy], field[pos_ix, pos_iy],
    )
    edge_ids = np.concatenate([h_edge(h_ix, h_iy), v_edge(v_ix, v_iy)])
    vertices = dict(zip(edge_ids.tolist(), zip(vx.tolist(), vy.tolist(), vr.tolist())))

    # A cell crosses 0, 2 or 4 of its edges, listed (left, top, bottom, right);
    # consecutive crossing edges pair into segments.  A saddle (all four) keeps
    # that pairing when its centre mean is on corner (ix, iy)'s side of 0, so
    # the centre joins that corner's diagonal; otherwise top and bottom swap.
    c_left, c_right = v_cross[:-1, :], v_cross[1:, :]
    c_bottom, c_top = h_cross[:, :-1], h_cross[:, 1:]
    cx, cy = np.nonzero(c_left | c_right | c_bottom | c_top)
    crossing = np.stack([c_left[cx, cy], c_top[cx, cy], c_bottom[cx, cy], c_right[cx, cy]], 1)
    ids = np.stack([v_edge(cx, cy), h_edge(cx, cy + 1), h_edge(cx, cy), v_edge(cx + 1, cy)], 1)
    saddle = np.flatnonzero(crossing.all(axis=1))
    sx, sy = cx[saddle], cy[saddle]
    f00, f10 = field[sx, sy], field[sx + 1, sy]
    f11, f01 = field[sx + 1, sy + 1], field[sx, sy + 1]
    center = 0.25 * (f00 + f10 + f11 + f01)
    split = saddle[(center < 0) != neg[sx, sy]]
    ids[split, 1], ids[split, 2] = ids[split, 2], ids[split, 1]

    curves = _chain_segments(ids[crossing].reshape(-1, 2).tolist(), vertices)
    return ZeroLocus(j, curves)


def _chain_segments(segments, vertices):
    """Walk edge-id segments into polylines in a deterministic order.

    An edge vertex joins at most two segments, so the segments form disjoint
    open paths and closed loops.  Open paths come first, in the order of their
    smaller end id and each walked from it; then closed loops, in the order of
    their smallest id, each walked from it towards its smaller neighbour and
    ending on it again.
    """
    links: dict[int, list[int]] = {}
    for a, b in segments:
        links.setdefault(a, []).append(b)
        links.setdefault(b, []).append(a)
    ends = sorted(e for e, nbrs in links.items() if len(nbrs) == 1)
    curves = []
    for start in ends + sorted(links):
        path = [start]
        while links[path[-1]]:
            a = path[-1]
            b = min(links[a])
            links[a].remove(b)
            links[b].remove(a)
            path.append(b)
        if len(path) > 1:
            curves.append(tuple(vertices[e] for e in path))
    return tuple(curves)
