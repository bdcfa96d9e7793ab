"""Cross-check suites: the independent identities the library is built on.

Each group compares two computation routes that share as little code as
possible (generic kernel assembly vs expanded closed forms, closed forms vs
integral oracles, algebraic inverses vs root solvers) and reports the worst
deviation seen.  All draws are seeded, all grids fixed: repeated runs give
identical results.

The scaling group checks the one symmetry of the package's natural units:
m -> lam m, r -> r / lam, V -> lam V leaves every reduced quantity (m f,
the level positions, V / m on the curves, the determinant, the locus in
(m a2, chi)) unchanged.

`run_verification` executes the selected groups in registry order.  The
unitarity, smatrix and phase groups read the same reference sweeps, built
once per process.  The test suite shows that a group can fail by patching
one route of its comparison; no run-time option perturbs a route.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .boundstates import (
    bound_wavefunction,
    det_bound,
    level_roots,
    sample_det_curve,
    sample_v0_curve,
    sample_v1pm_curve,
    sample_v2_curve,
    solve_levels,
    v0_of_w,
    v1_pm_of_w,
)
from .errors import DomainError
from .greens import (green_line, green_partial, green_partial_array, green_partial_bound,
                     green_spectral_oracle)
from .kinematics import ALL_VARIANTS, BoundEnergy, EquationVariant, Kinematics
from .nonrel import limit_convergence
from .numerics import _TOL_X, integrate_semi_infinite
from .scattering import (
    ScatterSweep,
    ShellPotential,
    amplitude,
    amplitude_explicit,
    scan_zero_locus,
    sweep,
    zero_condition,
)

_SEED = 734001
_TWO_PATH_TOL = 1e-12
_UNITARITY_TOL = 1e-12
_GF_IDENTITY_TOL = 1e-12
_SPECTRAL_TOL = 1e-6
_SMATRIX_TOL = 1e-12
_PHASE_TOL = 1e-9
_RT_TOL = 1e-12
_CLOSED_LOOP_TOL = 1e-9
_QUADRATIC_TOL = 1e-10
_NORM_TOL = 1e-8
_NR_FINAL_TOL = 1e-2
_LOCUS_TOL = 1e-8
# the scaling group: lam = 2^k is exact in floating point, the others are not
_EXACT_SCALES = (2.0, 2.0 ** -10)
_INEXACT_SCALES = (0.37, 1e3)
_UNIT_ROUNDOFF = 2.0 ** -53
_FD_STEP = 2.0 ** -20


@dataclass(frozen=True)
class GroupResult:
    """Outcome of one invariant group.

    `worst` is the largest deviation observed, in the units of `tolerance`;
    `violations` counts structural checks (signs, root counts, monotonicity)
    that have no meaningful deviation scale.  A group passes iff
    worst < tolerance and violations == 0.
    """

    name: str
    passed: bool
    worst: float
    tolerance: float
    n_checks: int
    violations: int
    detail: str


def _result(name: str, worst: float, tol: float, n: int, detail: str,
            violations: int = 0) -> GroupResult:
    return GroupResult(name, worst < tol and violations == 0, worst, tol, n,
                       violations, detail)


def _single_pot() -> ShellPotential:
    return ShellPotential.single(2.0, 5.0)


def _double_pot() -> ShellPotential:
    return ShellPotential.double(1.0, 3.0, -1.0, 4.0)


def _triple_pot() -> ShellPotential:
    return ShellPotential(((1.0, 3.0), (-1.0, 4.0), (0.5, 5.5)))


def _chi_grid(n: int = 800, lo: float = 0.05, hi: float = 4.0) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _random_potential(rng: np.random.Generator) -> ShellPotential:
    if rng.uniform() < 0.5:
        return ShellPotential.single(float(rng.uniform(-5, 5)), float(rng.uniform(0.1, 6.0)))
    a1 = float(rng.uniform(0.1, 3.0))
    a2 = a1 + float(rng.uniform(0.2, 3.0))
    return ShellPotential.double(
        float(rng.uniform(-4, 4)), a1, float(rng.uniform(-4, 4)), a2
    )


def check_two_path() -> GroupResult:
    """Generic kernel amplitudes against the expanded per-variant forms."""
    rng = np.random.default_rng(_SEED)
    worst = 0.0
    n = 0
    for _ in range(50):
        j = int(rng.integers(1, 5))
        kin = Kinematics(float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.05, 4.0)))
        v0 = float(rng.uniform(-5, 5))
        a = float(rng.uniform(0.1, 6.0))
        f_gen = amplitude(j, kin, ShellPotential.single(v0, a))
        f_exp = amplitude_explicit(j, kin, ShellPotential.single(v0, a))
        worst = max(worst, abs(f_gen - f_exp) / max(abs(f_gen), 1e-300))
        n += 1
    for _ in range(50):
        kin = Kinematics(float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.05, 4.0)))
        a1 = float(rng.uniform(0.1, 3.0))
        a2 = a1 + float(rng.uniform(0.2, 3.0))
        v1 = float(rng.uniform(-4, 4))
        v2 = float(rng.uniform(-4, 4))
        f_gen = amplitude(3, kin, ShellPotential.double(v1, a1, v2, a2))
        f_exp = amplitude_explicit(3, kin, ShellPotential.double(v1, a1, v2, a2))
        worst = max(worst, abs(f_gen - f_exp) / max(abs(f_gen), 1e-300))
        n += 1
    return _result("two_path", worst, _TWO_PATH_TOL, n,
                   "kernel-built f vs expanded closed forms, relative")


def _unitarity_defect(q, f):
    """|Im f - q |f|^2| / (1 + |f|^2), for numbers or numpy arrays."""
    return abs(f.imag - q * abs(f) ** 2) / (1.0 + abs(f) ** 2)


def check_unitarity() -> GroupResult:
    """|Im f - q |f|^2| on random points and on both sweep grids."""
    rng = np.random.default_rng(_SEED + 1)
    worst = 0.0
    n = 0
    for _ in range(200):
        j = int(rng.integers(1, 5))
        kin = Kinematics(float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.05, 4.0)))
        f = amplitude(j, kin, _random_potential(rng))
        worst = max(worst, _unitarity_defect(kin.q, f))
        n += 1
    # the single- and double-shell sweeps over the 800-point grid
    for sw, _ in _reference_sweeps()[:2 * len(ALL_VARIANTS)]:
        worst = max(worst, float(_unitarity_defect(sw.q, sw.f).max()))
        n += len(sw.f)
    return _result("unitarity", worst, _UNITARITY_TOL, n,
                   "optical-theorem defect, normalized by 1 + |f|^2")


def check_gf_identity() -> GroupResult:
    """Im G(chi,a,b), the sine product -2 sin(chi m a) sin(chi m b) / K, against
    the image difference of the line kernels' -cos(chi m r) / K."""
    rng = np.random.default_rng(_SEED + 2)
    worst = 0.0
    for _ in range(100):
        j = int(rng.integers(1, 5))
        m = float(rng.uniform(0.2, 3.0))
        chi = float(rng.uniform(0.05, 4.0))
        a = float(rng.uniform(0.05, 6.0))
        b = float(rng.uniform(0.05, 6.0))
        kin = Kinematics(m, chi)
        images = (green_line(j, kin, a - b) - green_line(j, kin, a + b)).imag
        worst = max(worst, abs(green_partial(j, kin, a, b).imag - images))
    return _result("gf_identity", worst, _GF_IDENTITY_TOL, 100,
                   "imaginary part of the partial kernel vs its cosine images")


def check_spectral() -> GroupResult:
    """Closed bound-branch kernels against the momentum-integral oracle."""
    worst = 0.0
    n = 0
    for j in ALL_VARIANTS:
        for w in (0.3, 0.7, 1.2):
            be = BoundEnergy(1.0, w)
            for r in (0.5, 1.3, 2.7):
                closed = green_partial_bound(j, be, r, r)
                oracle = green_spectral_oracle(j, be, r, r, tol=1e-8)
                worst = max(worst, abs(closed - oracle.value))
                n += 1
    return _result("spectral", worst, _SPECTRAL_TOL, n,
                   "closed kernel vs adaptive momentum integral, absolute")


def _reference_deltas(j: int, pot: ShellPotential, chis: list[float]) -> np.ndarray:
    """det(1 - G V) at m = 1 over a rapidity grid from the complex kernel and
    numpy's LU determinant: neither the real K-matrix split nor the cofactor
    expansion behind sweep, so S and the phase are not self-checked."""
    radii = np.array(pot.radii)
    g = green_partial_array(j, 1.0, np.array(chis)[:, None, None], radii[:, None], radii)
    return np.linalg.det(np.eye(len(radii)) - g * np.array(pot.strengths))


@functools.cache
def _reference_sweeps() -> tuple[tuple[ScatterSweep, np.ndarray], ...]:
    """(array sweep, reference D per point) on both sweeps and a coarser
    3-shell one; the sweep is the route the scatter CLI writes.  Cached for
    the process, so a test that patches sweep or a kernel under smatrix or
    phase must call _reference_sweeps.cache_clear() first."""
    return tuple((sweep(j, 1.0, pot, chis), _reference_deltas(j, pot, chis))
                 for pot, chis in ((_single_pot(), _chi_grid()), (_double_pot(), _chi_grid()),
                                   (_triple_pot(), _chi_grid(200)))
                 for j in ALL_VARIANTS)


def check_smatrix() -> GroupResult:
    """S = 1 + 2iqf vs conj(D)/D from the reference D, and unimodularity."""
    worst = 0.0
    n = 0
    for sw, delta in _reference_sweeps():
        s_mat = sw.s_matrix
        worst = max(worst, float(np.abs(s_mat - delta.conj() / delta).max()),
                    float(np.abs(np.abs(s_mat) - 1.0).max()))
        n += len(s_mat)
    return _result("smatrix", worst, _SMATRIX_TOL, n,
                   "additive S vs conj(D)/D of the complex det, and | |S| - 1 |")


def check_phase() -> GroupResult:
    """tan(2 phase) against the real/imaginary split of the reference D.

    With D = alpha + i beta from the complex det, S = (alpha - i beta) /
    (alpha + i beta) gives tan(2 phi) = -2 alpha beta / (alpha^2 - beta^2),
    whatever multiple of pi unwrapping added to phi.  Checked where
    |cos(2 phi)| > 0.1 so the tangent is well-conditioned.
    """
    worst = 0.0
    n = 0
    for sw, delta in _reference_sweeps():
        two_phi = 2.0 * sw.phase
        keep = np.abs(np.cos(two_phi)) > 0.1
        alpha, beta = delta.real[keep], delta.imag[keep]
        expected = -2.0 * alpha * beta / (alpha * alpha - beta * beta)
        dev = np.abs(np.tan(two_phi[keep]) - expected) / np.maximum(np.abs(expected), 1.0)
        worst = max(worst, float(dev.max(initial=0.0)))
        n += len(dev)
    return _result("phase", worst, _PHASE_TOL, n,
                   "tan(2 phi) vs the complex det, relative, |cos 2phi| > 0.1")


def check_rt_zeros() -> GroupResult:
    """Transparency: |f| at chi = pi n / (m a) for n = 1..10, every variant."""
    worst = 0.0
    n = 0
    chis = [math.pi * k / 5.0 for k in range(1, 11)]
    for j in ALL_VARIANTS:
        f = sweep(j, 1.0, _single_pot(), chis).f
        worst = max(worst, float(np.abs(f).max()))
        n += len(f)
    return _result("rt_zeros", worst, _RT_TOL, n,
                   "|f| at the shared transparency rapidities, m=1 a=5 V0=2")


def check_bound_structure() -> GroupResult:
    """Sign of the single-shell curve, closed-loop inversion, root counts."""
    violations = 0
    worst = 0.0
    n = 0
    for m, a in ((1.0, 1.0), (0.5, 2.0)):
        for j in ALL_VARIANTS:
            # w = (pi/2) k / 501, k = 1..500; a flagged sample is a violation
            curve = sample_v0_curve(j, m, a, n=500)
            violations += int(np.count_nonzero(~curve.finite | (curve.value >= 0.0)))
            n += len(curve)
            target = 0.7
            v0 = v0_of_w(j, BoundEnergy(m, target), a)
            levels = solve_levels(j, m, ShellPotential.single(v0, a))
            if len(levels) != 1:
                violations += 1
            else:
                worst = max(worst, abs(levels[0].w - target))
            n += 1
    for v1, v2, want in ((7.0, -2.0, (1, 2)), (-2.0, -1.0, (1, 2)), (1.0, 2.0, (0,))):
        pot = ShellPotential.double(v1, 1.0, v2, 3.0)
        for j in ALL_VARIANTS:
            if len(solve_levels(j, 1.0, pot)) not in want:
                violations += 1
            n += 1
    return _result("bound_structure", worst, _CLOSED_LOOP_TOL, n,
                   "curve signs, closed-loop |w - w*|, two-shell root counts",
                   violations)


def check_quadratic() -> GroupResult:
    """Tied-strength roots: back-substitution, Vieta, discriminant sign."""
    rng = np.random.default_rng(_SEED + 3)
    worst = 0.0
    violations = 0
    n = 0
    while n < 50:
        j = int(rng.integers(1, 5))
        be = BoundEnergy(float(rng.uniform(0.3, 2.0)),
                         float(rng.uniform(0.05, math.pi / 2 - 0.05)))
        a1 = float(rng.uniform(0.2, 2.0))
        a2 = a1 + float(rng.uniform(0.2, 3.0))
        alpha = float(rng.uniform(-2.0, 2.0))
        if abs(alpha) < 1e-3:
            continue
        roots = v1_pm_of_w(j, be, a1, a2, alpha)
        if roots is None:
            if alpha > 0.0:
                violations += 1
            n += 1
            continue
        g11 = green_partial_bound(j, be, a1, a1)
        g22 = green_partial_bound(j, be, a2, a2)
        g12 = green_partial_bound(j, be, a1, a2)
        for root in (roots.plus, roots.minus):
            pot = ShellPotential.double(root, a1, alpha * root, a2)
            worst = max(worst, abs(det_bound(j, be, pot)))
        vieta = roots.plus * roots.minus * (alpha * (g11 * g22 - g12 * g12)) - 1.0
        worst = max(worst, abs(vieta))
        n += 1
    return _result("quadratic", worst, _QUADRATIC_TOL, n,
                   "root back-substitution residual and Vieta product defect",
                   violations)


def check_normalization() -> GroupResult:
    """Unit norm of bound wave functions across variants 1, 3, 4."""
    worst = 0.0
    n = 0
    for j in (1, 3, 4):
        be = BoundEnergy(1.0, 0.6)
        pot = ShellPotential.single(v0_of_w(j, be, 1.0), 1.0)
        psi, _level = bound_wavefunction(j, 1.0, 0.6, pot)
        total = integrate_semi_infinite(lambda r: psi(r) ** 2, 0.0, 2.0 * 0.6, 1e-11)
        worst = max(worst, abs(total.value - 1.0))
        n += 1
    return _result("normalization", worst, _NORM_TOL, n,
                   "| integral of psi^2 - 1 | for one level per variant")


def check_nrlimit() -> GroupResult:
    """Heavy-mass convergence to the static closed forms, three observables."""
    masses = (10.0, 100.0, 1000.0)
    worst = 0.0
    violations = 0
    n = 0
    for observable, params in (
        ("amplitude", dict(q=0.6, pot=_single_pot())),
        ("gf", dict(q=0.5, r=1.2, rp=0.4)),
        ("quantization", dict(kappa=0.5, a=1.0)),
    ):
        finals = []
        for j in ALL_VARIANTS:
            rep = limit_convergence(observable, j, masses, **params)
            if not rep.monotone:
                violations += 1
            finals.append(rep.final_deviation)
            worst = max(worst, rep.final_deviation)
            n += 1
        if max(finals) - min(finals) >= 2.0 * max(finals):
            violations += 1
    return _result("nrlimit", worst, _NR_FINAL_TOL, n,
                   "largest deviation at m=1000; monotone decrease enforced",
                   violations)


def check_zero_locus() -> GroupResult:
    """Plane-scan transparency curves: residuals and degenerate collapse."""
    worst = 0.0
    violations = 0
    n = 0
    for j in (1, 4):
        locus = scan_zero_locus(j, 1.0, 3.0, 1.0, -1.0, (3.0, 8.0), (0.1, 3.0),
                                grid=(300, 300))
        if not locus.curves:
            violations += 1
        for curve in locus.curves:
            for _x, _y, residual in curve:
                worst = max(worst, residual)
                n += 1
    degenerate = scan_zero_locus(1, 1.0, 3.0, 1.0, 0.0, (3.0, 8.0), (0.1, 3.0),
                                 grid=(32, 32))
    step = math.pi / 3.0
    for curve in degenerate.curves:
        for _x, y, _residual in curve:
            k = round(y / step)
            worst_line = abs(y - k * step)
            if worst_line > 1e-12:
                violations += 1
            n += 1
    return _result("zero_locus", worst, _LOCUS_TOL, n,
                   "vertex residuals over the (a2, chi) window; line collapse",
                   violations)


def _bits(col: np.ndarray) -> np.ndarray:
    """The bytes of each element of a column, one row per element."""
    return col.view(np.uint8).reshape(len(col), -1)


def check_determinism() -> GroupResult:
    """Repeated evaluation of every sweep family gives bit-identical floats."""
    chi = _chi_grid(64)
    violations = 0
    n = 0

    def run_scatter():
        return sweep(2, 1.0, _double_pot(), chi)

    def run_curve():
        return sample_v2_curve(4, 1.0, 1.0, 4.0, -3.5, n=128)

    def run_locus():
        return scan_zero_locus(1, 1.0, 3.0, 1.0, -1.0, (3.0, 8.0), (0.5, 2.5),
                               grid=(32, 32))

    for run in (run_scatter, run_curve):
        a, b = run(), run()
        same = np.all([(_bits(col_a) == _bits(col_b)).all(axis=1)
                       for col_a, col_b in zip(a.columns(), b.columns())], axis=0)
        n += len(same)
        violations += int((~same).sum())
    a, b = run_locus(), run_locus()
    n += 1
    if a.curves != b.curves:
        violations += 1
    return _result("determinism", 0.0, 1.0, n,
                   "bit-identical repeated sweeps, curves and loci", violations)


def _scaled_pot(pot: ShellPotential, lam: float) -> ShellPotential:
    return ShellPotential(tuple((lam * v, a / lam) for v, a in pot.shells))


def _nudged_pot(pot: ShellPotential, k: int, field: int, factor: float) -> ShellPotential:
    """pot with the strength (field 0) or radius (field 1) of shell k times factor."""
    shells = [list(s) for s in pot.shells]
    shells[k][field] *= factor
    return ShellPotential(tuple(map(tuple, shells)))


def _scaling_bound(observe, m: float, pot: ShellPotential, base: np.ndarray,
                   floor: float) -> np.ndarray:
    """Bound on |observe(lam m, pot_lam) - observe(m, pot)| at a lam that is
    not a power of 2.

    The scaled run reaches the reduced inputs V_k / m and m a_k through
    lam V_k / (lam m) and (lam m)(a_k / lam), each within 4u relative of the
    unscaled ones (u = 2^-53: three roundings and one spare), and returns
    its output F within 4u of lam times the unscaled one.  To first order
    that moves F by at most 4u (|F| + sum_p |p dF/dp|) over the inputs p;
    p dF/dp is taken by central differences of relative step _FD_STEP
    (scaling a_k or V_k at fixed m scales m a_k or V_k / m alike).  On top
    come the rounding errors of the two evaluations, which differ once the
    inputs do.  Their size is measured, not modelled, as the largest change
    of F when one input moves up or down by about one ulp (a change that
    also holds that input's 2u share of the first term), and counted twice.
    floor adds what a stopping rule leaves (the bisection width of a level
    position).
    """
    slope = np.abs(base)
    noise = np.zeros_like(base)
    for k in range(len(pot.shells)):
        for field in (0, 1):
            up = observe(m, _nudged_pot(pot, k, field, 1.0 + _FD_STEP))
            down = observe(m, _nudged_pot(pot, k, field, 1.0 - _FD_STEP))
            slope = slope + np.abs(up - down) / (2.0 * _FD_STEP)
            for ulp in (1.0 + 2.0 * _UNIT_ROUNDOFF, 1.0 - 2.0 * _UNIT_ROUNDOFF):
                noise = np.maximum(noise, np.abs(observe(m, _nudged_pot(pot, k, field, ulp))
                                                 - base))
    return 4.0 * _UNIT_ROUNDOFF * slope + 2.0 * noise + floor


def _scaling_cases():
    """(observe(m, pot) -> reduced values, pot, floor) for sweep, the level
    scan and the four curves."""
    chis = _chi_grid(100)
    pair = ShellPotential.double(1.3, 0.7, -2.1, 2.9)
    bound_pair = ShellPotential.double(-2.0, 1.0, -1.0, 3.0)
    for j in ALL_VARIANTS:
        yield lambda m, pot, j=j: (m * sweep(j, m, pot, chis).f).view(float), pair, 0.0
        yield (lambda m, pot, j=j: np.array(level_roots(j, m, pot, n_scan=100)),
               bound_pair, _TOL_X)
        yield (lambda m, pot, j=j: sample_v0_curve(j, m, pot.radii[0], n=50).value / m,
               ShellPotential.single(1.0, 1.0), 0.0)
        yield lambda m, pot, j=j: sample_det_curve(j, m, pot, n=50).value, bound_pair, 0.0
        yield (lambda m, pot, j=j: sample_v2_curve(j, m, *pot.radii, pot.strengths[0],
                                                   n=50).value / m,
               ShellPotential.double(-3.5, 1.0, 1.0, 4.0), 0.0)
        yield (lambda m, pot, j=j: np.concatenate(
                   [c.value for c in sample_v1pm_curve(j, m, *pot.radii, -1.0, n=50)]) / m,
               ShellPotential.double(1.0, 1.0, 1.0, 2.0), 0.0)


def _locus(m: float, pot: ShellPotential):
    """The curves of a 32 x 32 scan over a2 in [a1, a2]."""
    (v1, a1), (v2, a2) = pot.shells
    return scan_zero_locus(1, m, a1, v1, v2, (a1, a2), (0.5, 2.5), grid=(32, 32)).curves


def _locus_scaling(m: float) -> tuple[float, int, int]:
    """(worst, violations, checks) of the scaling law on the zero locus.

    The field is the condition C = m (C / m) with C / m reduced, so at
    lam = 2^k its signs, and with them the segments and curve lengths, are
    the same: a difference is a violation.  The vertices are not compared
    directly, since the 1e-10 refinement target is on C, which scales as
    lam: a vertex may stop a round earlier or later.  Instead, at every 32nd
    vertex of each scaled scan, mapped back, the unscaled C / m must equal
    the scaled scan's residual over lam m within _scaling_bound.
    """
    pot = ShellPotential.double(1.0, 3.0, -1.0, 8.0)
    (v1, a1), (v2, _) = pot.shells
    lengths = [len(curve) for curve in _locus(m, pot)]
    worst, violations, n = 0.0, 0, 0
    for lam in _EXACT_SCALES + _INEXACT_SCALES:
        curves = _locus(lam * m, _scaled_pot(pot, lam))
        if lam in _EXACT_SCALES:
            violations += [len(curve) for curve in curves] != lengths
            n += 1
        for x, y, residual in [vertex for curve in curves for vertex in curve][::32]:
            at = ShellPotential.double(v1, a1, v2, lam * x)
            kin = Kinematics(m, y)

            def reduced(_m, p, kin=kin):
                return np.array([zero_condition(1, kin, p) / m])

            value = reduced(m, at)
            bound = _scaling_bound(reduced, m, at, value, 0.0)
            worst = max(worst, abs(abs(value[0]) - residual / (lam * m)) / bound[0])
            n += 1
    return worst, violations, n


def check_scaling() -> GroupResult:
    """The scaling law m -> lam m, r -> r / lam, V -> lam V on the solvers.

    Each case maps its output to reduced values (m f, the level positions
    of level_roots, which solve_levels returns, curve strengths over m, the
    determinant); the zero locus is checked by _locus_scaling.  At lam = 2^k
    every operation scales exactly, so they must be bit-identical: a
    difference is a violation.  At other lam they must agree within
    _scaling_bound, and worst is the largest deviation over its bound.  The
    level normalization is not compared: its quadrature tolerance is
    absolute, and the norm integral over r scales as 1 / lam.
    """
    m = 1.1
    worst, violations, n = _locus_scaling(m)
    for observe, pot, floor in _scaling_cases():
        base = observe(m, pot)
        for lam in _EXACT_SCALES:
            got = observe(lam * m, _scaled_pot(pot, lam))
            n += 1
            violations += not (got.shape == base.shape and got.tobytes() == base.tobytes())
        bound = _scaling_bound(observe, m, pot, base, floor)
        flagged = np.isnan(base)
        for lam in _INEXACT_SCALES:
            got = observe(lam * m, _scaled_pot(pot, lam))
            n += 1
            if got.shape != base.shape or (np.isnan(got) != flagged).any():
                violations += 1
                continue
            ratio = np.abs(got - base)[~flagged] / bound[~flagged]
            worst = max(worst, float(ratio.max(initial=0.0)))
    return _result("scaling", worst, 1.0, n,
                   "m -> lam m, r -> r/lam, V -> lam V: bit-identical at lam = 2^k, "
                   "else deviation over its rounding bound", violations)


_GROUPS: dict[str, Callable[[], GroupResult]] = {
    "two_path": check_two_path,
    "unitarity": check_unitarity,
    "gf_identity": check_gf_identity,
    "spectral": check_spectral,
    "smatrix": check_smatrix,
    "phase": check_phase,
    "rt_zeros": check_rt_zeros,
    "bound_structure": check_bound_structure,
    "quadratic": check_quadratic,
    "normalization": check_normalization,
    "nrlimit": check_nrlimit,
    "zero_locus": check_zero_locus,
    "determinism": check_determinism,
    "scaling": check_scaling,
}

GROUP_NAMES: tuple[str, ...] = tuple(_GROUPS)


def run_verification(groups: Iterable[str] | None = None) -> list[GroupResult]:
    """Run the selected invariant groups (all of them by default), in order."""
    names: Sequence[str] = GROUP_NAMES if groups is None else tuple(groups)
    unknown = sorted(set(names) - set(_GROUPS))
    if unknown:
        raise DomainError(f"unknown verification groups: {', '.join(unknown)}")
    return [_GROUPS[name]() for name in names]
