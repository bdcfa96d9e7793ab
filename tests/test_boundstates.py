"""Quantization curves, level counting and normalized bound wave functions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpshell.boundstates import (
    V1Roots,
    _v1pm_parts,
    bound_wavefunction,
    det_bound,
    level_roots,
    sample_det_curve,
    sample_v0_curve,
    sample_v1pm_curve,
    sample_v2_curve,
    solve_levels,
    v0_of_w,
    v0_of_w_explicit,
    v1_pm_of_w,
)
from qpshell.errors import DomainError, QpshellError, SingularPointError
from qpshell.greens import green_partial_bound
from qpshell.kinematics import ALL_VARIANTS, BOUND_W_HI, BOUND_W_LO, BoundEnergy
from qpshell.numerics import find_roots_scan, integrate_semi_infinite
from qpshell.scattering import ShellPotential

from test_greens import reference_partial


def test_v0_two_path():
    rng = np.random.default_rng(20)
    for _ in range(60):
        j = int(rng.integers(1, 5))
        be = BoundEnergy(float(rng.uniform(0.3, 2.5)), float(rng.uniform(0.05, 1.5)))
        a = float(rng.uniform(0.2, 4.0))
        gen = v0_of_w(j, be, a)
        exp = v0_of_w_explicit(j, be, a)
        assert abs(gen - exp) <= 1e-12 * abs(gen)


def test_v0_frozen_value():
    # closed form for j = 3 at m = 1, a = 1, w = 0.5:
    #   2 sin(0.5) sinh(pi) / (cosh(pi) - cosh((pi - 1) ... )) reduces to
    #   2 sin(0.5) / (2 sinh(0.5)^2 - tanh(pi) sinh(1))
    be = BoundEnergy(1.0, 0.5)
    expected = 2.0 * math.sin(0.5) / (
        2.0 * math.sinh(0.5) ** 2 - math.tanh(math.pi) * math.sinh(1.0)
    )
    got = v0_of_w(3, be, 1.0)
    assert math.isclose(got, expected, rel_tol=1e-14)
    assert got < 0
    # and it is genuinely a quantization point: 1 - V0 G(a, a) = 0
    assert abs(1.0 - got * green_partial_bound(3, be, 1.0, 1.0)) < 1e-12


def test_v0_always_attractive():
    for j in ALL_VARIANTS:
        for w in (0.1, 0.5, 1.0, 1.4):
            for a in (1.0, 2.0):
                assert v0_of_w(j, BoundEnergy(1.0, w), a) < 0


def test_solve_levels_single_closed_loop():
    for j in ALL_VARIANTS:
        v0 = v0_of_w(j, BoundEnergy(1.0, 0.7), 1.0)
        levels = solve_levels(j, 1.0, ShellPotential.single(v0, 1.0))
        assert len(levels) == 1
        assert abs(levels[0].w - 0.7) < 1e-9
        assert levels[0].residual < 1e-10


def test_solve_levels_single_repulsive_is_empty():
    for j in ALL_VARIANTS:
        assert solve_levels(j, 1.0, ShellPotential.single(2.0, 1.0)) == []


def test_single_shell_binds_at_most_once():
    rng = np.random.default_rng(21)
    for _ in range(50):
        j = int(rng.integers(1, 5))
        v0 = float(rng.uniform(-8.0, -0.05))
        a = float(rng.uniform(0.3, 4.0))
        assert len(solve_levels(j, 1.0, ShellPotential.single(v0, a))) <= 1


def test_det_bound_reduces_when_outer_strength_vanishes():
    v0 = v0_of_w(2, BoundEnergy(1.0, 0.9), 1.5)
    pot2 = ShellPotential.double(v0, 1.5, 0.0, 3.0)
    singles = solve_levels(2, 1.0, ShellPotential.single(v0, 1.5))
    doubles = solve_levels(2, 1.0, pot2)
    assert len(singles) == len(doubles) == 1
    assert abs(singles[0].w - doubles[0].w) < 1e-10


def test_det_bound_continues_scattering_determinant():
    # the bound determinant is the scattering Cramer determinant carried to
    # chi = i w, where it becomes real; check against an undecomposed
    # complex-rapidity evaluation of the kernels
    j, m, w = 2, 1.0, 0.6
    v1, a1, v2, a2 = -2.0, 1.0, -1.0, 2.0
    g11 = reference_partial(j, m, 1j * w, a1, a1)
    g22 = reference_partial(j, m, 1j * w, a2, a2)
    g12 = reference_partial(j, m, 1j * w, a1, a2)
    delta = (1.0 - v1 * g11) * (1.0 - v2 * g22) - v1 * v2 * g12 * g12
    det = det_bound(j, BoundEnergy(m, w), ShellPotential.double(v1, a1, v2, a2))
    assert abs(delta.imag) < 1e-12
    assert abs(delta.real - det) < 1e-12


def test_det_bound_is_the_numpy_det_for_many_shells():
    rng = np.random.default_rng(23)
    for _ in range(200):
        j = int(rng.integers(1, 5))
        be = BoundEnergy(float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.05, 1.5)))
        n = int(rng.integers(1, 5))
        radii = np.sort(rng.uniform(0.1, 6.0, n)).tolist()
        pot = ShellPotential(tuple(zip(rng.uniform(-4, 4, n).tolist(), radii)))
        g = np.array([[green_partial_bound(j, be, r, rp) for rp in radii] for r in radii])
        ref = np.linalg.det(np.eye(n) - g * np.array(pot.strengths))
        assert abs(det_bound(j, be, pot) - ref) <= 1e-12 * abs(ref)


def test_solve_levels_three_shells():
    pot = ShellPotential(((-2.0, 1.0), (-1.0, 2.0), (-1.5, 3.0)))
    for j in ALL_VARIANTS:
        levels = solve_levels(j, 1.0, pot)
        assert levels
        for lv in levels:
            assert lv.residual < 1e-10
            psi, level = bound_wavefunction(j, 1.0, lv.w, pot)
            assert level.psi_shell == tuple(psi(a) for a in pot.radii)
            norm = integrate_semi_infinite(lambda r: psi(r) ** 2, 0.0, 2 * lv.w, 1e-10)
            assert abs(norm.value - 1.0) < 1e-8


def test_double_repulsive_never_binds():
    pot = ShellPotential.double(1.0, 1.0, 2.0, 3.0)
    for j in ALL_VARIANTS:
        assert solve_levels(j, 1.0, pot, n_scan=4000) == []


def test_level_counts_two_shells():
    # representative strength pairs at a1 = 1, a2 = 3: mixed and doubly
    # attractive walls carry one or two levels in every variant
    for v1, v2 in ((7.0, -2.0), (-2.0, -1.0)):
        pot = ShellPotential.double(v1, 1.0, v2, 3.0)
        for j in ALL_VARIANTS:
            levels = solve_levels(j, 1.0, pot)
            assert 1 <= len(levels) <= 2
            for lv in levels:
                assert lv.residual < 1e-10


def test_level_count_narrow_pair():
    levels = solve_levels(1, 1.0, ShellPotential.double(7.0, 1.0, -2.0, 2.0))
    assert 1 <= len(levels) <= 2
    for lv in levels:
        assert lv.residual < 1e-10


def _v2_near(j, a1, a2, v1, w):
    """(w_k, V2(w_k)) at the grid point of the sampled V2 curve nearest w."""
    curve = sample_v2_curve(j, 1.0, a1, a2, v1)
    k = int(np.argmin(np.abs(curve.w - w)))
    assert curve.finite[k]
    return float(curve.w[k]), float(curve.value[k])


def test_v2_back_substitution():
    w, v2 = _v2_near(4, 1.0, 2.0, 1.5, 0.4)
    det = det_bound(4, BoundEnergy(1.0, w), ShellPotential.double(1.5, 1.0, v2, 2.0))
    assert abs(det) < 1e-11


def test_v2_with_inner_off_matches_single():
    # at V1 = 0 every grid point of the V2 curve is the single-shell V0(w)
    curve = sample_v2_curve(1, 1.0, 1.0, 2.5, 0.0, n=50)
    assert curve.finite.all()
    for w, v2 in zip(curve.w.tolist(), curve.value.tolist()):
        assert math.isclose(v2, v0_of_w(1, BoundEnergy(1.0, w), 2.5), rel_tol=1e-14)


def test_v2_closed_loop():
    w, v2 = _v2_near(2, 1.0, 2.5, -1.0, 0.8)
    levels = solve_levels(2, 1.0, ShellPotential.double(-1.0, 1.0, v2, 2.5))
    assert levels
    assert min(abs(lv.w - w) for lv in levels) < 1e-9


def test_v2_curve_flags_only_true_poles():
    # at (a1, a2, V1) = (1, 4, -3.5) the denominator crosses zero once for
    # variants 1, 2 and 4 and never for 3; at (1, 2, +1.5) it never does
    for j, n_poles in ((1, 1), (2, 1), (3, 0), (4, 1)):
        curve = sample_v2_curve(j, 1.0, 1.0, 4.0, -3.5)
        assert (~curve.finite).sum() == n_poles
        assert sample_v2_curve(j, 1.0, 1.0, 2.0, 1.5).finite.all()


def test_v2_curve_flagged_points_carry_nan():
    curve = sample_v2_curve(2, 1.0, 1.0, 4.0, -3.5)
    assert not curve.finite.all()
    assert (curve.finite != np.isnan(curve.value)).all()


def test_curve_columns_are_read_only():
    curve = sample_v2_curve(2, 1.0, 1.0, 4.0, -3.5, n=20)
    for col in (curve.w, curve.value, curve.finite):
        with pytest.raises(ValueError):
            col[0] = col[1]
    plus, minus = sample_v1pm_curve(3, 1.0, 1.0, 2.0, 1.0, n=20)
    assert plus.w is minus.w and plus.finite is minus.finite


def test_v1pm_requires_coupling():
    with pytest.raises(DomainError):
        v1_pm_of_w(1, BoundEnergy(1.0, 0.5), 1.0, 2.0, 0.0)
    with pytest.raises(DomainError):
        v1_pm_of_w(1, BoundEnergy(1.0, 0.5), 2.0, 1.0, 1.0)


def test_v1pm_back_substitution_and_vieta():
    rng = np.random.default_rng(22)
    for _ in range(40):
        j = int(rng.integers(1, 5))
        be = BoundEnergy(1.0, float(rng.uniform(0.1, 1.4)))
        a1 = float(rng.uniform(0.3, 2.0))
        a2 = a1 + float(rng.uniform(0.3, 2.0))
        alpha = float(rng.uniform(0.2, 3.0))   # alpha > 0: discriminant >= 0
        roots = v1_pm_of_w(j, be, a1, a2, alpha)
        assert roots is not None
        g11 = green_partial_bound(j, be, a1, a1)
        g22 = green_partial_bound(j, be, a2, a2)
        g12 = green_partial_bound(j, be, a1, a2)
        if not roots.degenerate:
            prod = alpha * (g11 * g22 - g12 * g12)
            assert abs(roots.plus * roots.minus * prod - 1.0) < 1e-10
        for v1 in {roots.plus, roots.minus}:
            det = det_bound(j, be, ShellPotential.double(v1, a1, alpha * v1, a2))
            assert abs(det) < 1e-9 * (1.0 + abs(v1 * alpha * v1) * (abs(g11 * g22) + g12 * g12))


def test_v1pm_labels_follow_quadratic_signs():
    be = BoundEnergy(1.0, 0.7)
    a1, a2, alpha = 1.0, 2.0, 1.0
    roots = v1_pm_of_w(1, be, a1, a2, alpha)
    g11 = green_partial_bound(1, be, a1, a1)
    g22 = green_partial_bound(1, be, a2, a2)
    g12 = green_partial_bound(1, be, a1, a2)
    qa = alpha * (g11 * g22 - g12 * g12)
    qb = -(g11 + alpha * g22)
    disc = (g11 - alpha * g22) ** 2 + 4.0 * alpha * g12 * g12
    plus = (-qb + math.sqrt(disc)) / (2.0 * qa)
    minus = (-qb - math.sqrt(disc)) / (2.0 * qa)
    assert math.isclose(roots.plus, plus, rel_tol=1e-10)
    assert math.isclose(roots.minus, minus, rel_tol=1e-10)


def test_v1pm_curve_shapes():
    plus, minus = sample_v1pm_curve(3, 1.0, 1.0, 2.0, 1.0, n=50)
    assert len(plus) == len(minus) == 50
    assert plus.finite.all() and minus.finite.all()     # alpha > 0 never gaps


def test_bound_wavefunction_contract():
    for j in ALL_VARIANTS:
        w = 0.6
        v0 = v0_of_w(j, BoundEnergy(1.0, w), 1.0)
        pot = ShellPotential.single(v0, 1.0)
        psi, level = bound_wavefunction(j, 1.0, w, pot)
        assert psi(0.0) == 0.0
        assert level.psi_shell == (psi(1.0),)
        assert level.norm_constant > 0
        norm = integrate_semi_infinite(lambda r: psi(r) ** 2, 0.0, 2 * w, 1e-10)
        assert abs(norm.value - 1.0) < 1e-8
        # pure exponential tail: psi(r) e^{w m r} saturates (variant 2 has a
        # subleading e^{-pi m r / 2} component, so probe well outside it)
        t1 = psi(25.0) * math.exp(w * 25.0)
        t2 = psi(30.0) * math.exp(w * 30.0)
        assert math.isclose(t1, t2, rel_tol=1e-9)
        with pytest.raises(DomainError):
            psi(-0.5)


def test_bound_wavefunction_two_shells():
    pot = ShellPotential.double(7.0, 1.0, -2.0, 3.0)
    levels = solve_levels(4, 1.0, pot)
    assert levels
    psi, level = bound_wavefunction(4, 1.0, levels[0].w, pot)
    assert psi(0.0) == 0.0
    assert level.psi_shell == (psi(1.0), psi(3.0))
    norm = integrate_semi_infinite(lambda r: psi(r) ** 2, 0.0, 2 * levels[0].w, 1e-10)
    assert abs(norm.value - 1.0) < 1e-8


def test_bound_wavefunction_rejects_off_surface():
    pot = ShellPotential.single(-3.0, 1.0)
    with pytest.raises(DomainError):
        bound_wavefunction(1, 1.0, 0.3, pot)


def test_curve_samplers_are_grids():
    v0 = sample_v0_curve(1, 1.0, 1.0, n=30)
    det = sample_det_curve(1, 1.0, ShellPotential.single(-2.0, 1.0), n=30)
    assert len(v0) == len(det) == 30
    assert v0.finite.all() and det.finite.all()
    assert ((0 < v0.w) & (v0.w < math.pi / 2)).all() and (np.diff(v0.w) > 0).all()
    assert v0.w.tolist() == det.w.tolist() == [(math.pi / 2) * k / 31 for k in range(1, 31)]
    with pytest.raises(DomainError):
        sample_v0_curve(1, 1.0, 1.0, n=1)


# one, two and three shells that bind in every variant at m = 1.6
_BINDING = [
    ShellPotential.single(-2.0, 1.0),
    ShellPotential.single(-1.2, 3.0),
    ShellPotential.double(-2.0, 1.0, -1.0, 3.0),
    ShellPotential.double(7.0, 1.0, -2.0, 3.0),
    ShellPotential.double(-3.0, 0.8, -2.0, 2.0),
    ShellPotential(((-2.0, 1.0), (-1.0, 2.0), (-1.5, 3.0))),
    ShellPotential(((1.0, 0.5), (-3.0, 1.5), (-2.0, 4.0))),
]


def test_solve_levels_equals_the_scalar_scan():
    # the array grid only screens; every field of every level equals a scan
    # that evaluates det_bound point by point
    levels = 0
    for pot in _BINDING:
        for j in ALL_VARIANTS:
            for m in (0.7, 1.6):
                roots = find_roots_scan(lambda w: det_bound(j, BoundEnergy(m, w), pot),
                                        BOUND_W_LO, BOUND_W_HI, n_scan=2000)
                assert roots or m != 1.6
                levels += len(roots)
                assert level_roots(j, m, pot) == [r.x for r in roots]
                ref = [bound_wavefunction(j, m, r.x, pot)[1] for r in roots]
                assert solve_levels(j, m, pot) == ref
    assert levels == 53


def _pointwise_v2(j, m, a1, a2, v1, n):
    """The per-point V2 sampler: scalar kernels, sign-change pole flags."""
    ws = [(math.pi / 2) * k / (n + 1) for k in range(1, n + 1)]
    nums, dens = [], []
    for w in ws:
        be = BoundEnergy(m, w)
        g11, g22, g12 = (green_partial_bound(j, be, r, rp)
                         for r, rp in ((a1, a1), (a2, a2), (a1, a2)))
        dens.append(g22 + v1 * (g12 * g12 - g11 * g22))
        nums.append(1.0 - v1 * g11)
    flagged = [den == 0.0 for den in dens]
    for i in range(n - 1):
        if flagged[i] or flagged[i + 1]:
            continue
        if (dens[i] > 0.0) != (dens[i + 1] > 0.0):
            flagged[i if abs(dens[i]) <= abs(dens[i + 1]) else i + 1] = True
    return ws, nums, dens, flagged


def _draws(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        j = int(rng.integers(1, 5))
        m = float(rng.uniform(0.3, 2.5))
        a1 = float(rng.uniform(0.2, 3.0))
        a2 = a1 + float(rng.uniform(0.2, 3.0))
        v1 = float(rng.uniform(-6.0, 3.0))
        alpha = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 2.0))
        yield j, m, a1, a2, v1, alpha


# Bounds, relative: the array kernel is within a few ulp of the terms
# summed into G (tests/test_greens.py); the curves amplify that by the
# cancellation in G(a, a) = line(0) - line(2 m a) and, for V1-, by the
# smaller root.  Worst seen: 6e-13 (v0), 3e-11 (v1pm).  V2 is compared
# after scaling by |den| / (its term scale), because its relative error
# grows as 1 / den next to a pole (worst seen 5e-14).
_CURVE_RTOL = 1e-9


def test_v0_curve_matches_pointwise():
    for j, m, a, *_ in _draws(31, 25):
        curve = sample_v0_curve(j, m, a, n=300)
        for w, value, finite in zip(curve.w.tolist(), curve.value.tolist(),
                                    curve.finite.tolist()):
            try:
                ref = v0_of_w(j, BoundEnergy(m, w), a)
            except SingularPointError:
                assert not finite
                continue
            assert finite
            assert abs(value - ref) <= _CURVE_RTOL * abs(ref)


def test_v2_curve_matches_pointwise():
    cases = [(j, 1.0, 1.0, 4.0, -3.5) for j in ALL_VARIANTS]     # the pole cases
    cases += [(j, 1.0, 1.0, 2.0, 1.5) for j in ALL_VARIANTS]
    cases += [(j, m, a1, a2, v1) for j, m, a1, a2, v1, _ in _draws(32, 25)]
    poles = 0
    for j, m, a1, a2, v1 in cases:
        curve = sample_v2_curve(j, m, a1, a2, v1, n=300)
        ws, nums, dens, flagged = _pointwise_v2(j, m, a1, a2, v1, 300)
        assert curve.w.tolist() == ws
        assert (~curve.finite).tolist() == flagged
        poles += sum(flagged)
        for w, value, num, den, flag in zip(ws, curve.value.tolist(), nums, dens, flagged):
            if flag:
                assert math.isnan(value)
                continue
            be = BoundEnergy(m, w)
            g11, g22, g12 = (green_partial_bound(j, be, r, rp)
                             for r, rp in ((a1, a1), (a2, a2), (a1, a2)))
            scale = abs(g22) + abs(v1) * (g12 * g12 + abs(g11 * g22))
            assert abs(value - num / den) * abs(den) <= _CURVE_RTOL * abs(num) * scale
    assert poles >= 3


def test_v1pm_curve_matches_pointwise():
    cases = [(j, m, a1, a2, alpha) for j, m, a1, a2, _, alpha in _draws(33, 30)]
    assert any(alpha < 0 for *_, alpha in cases)
    for j, m, a1, a2, alpha in cases:
        plus, minus = sample_v1pm_curve(j, m, a1, a2, alpha, n=300)
        assert plus.w is minus.w and plus.finite is minus.finite
        for w, p, q, finite in zip(plus.w.tolist(), plus.value.tolist(),
                                   minus.value.tolist(), plus.finite.tolist()):
            try:
                roots = v1_pm_of_w(j, BoundEnergy(m, w), a1, a2, alpha)
            except SingularPointError:
                roots = None
            assert finite == (roots is not None)
            if roots is not None:
                assert abs(p - roots.plus) <= _CURVE_RTOL * abs(roots.plus)
                assert abs(q - roots.minus) <= _CURVE_RTOL * abs(roots.minus)
            else:
                assert math.isnan(p) and math.isnan(q)


def test_det_curve_matches_pointwise():
    # measured against the product of the row sums of |1 - G V|, which bounds
    # every product summed into the determinant (worst seen 3e-14)
    for pot in _BINDING + [ShellPotential(((-1.0, 0.3), (2.0, 0.9), (-4.0, 2.2), (1.0, 5.0)))]:
        for j in ALL_VARIANTS:
            curve = sample_det_curve(j, 1.3, pot, n=200)
            assert curve.finite.all()
            for w, value in zip(curve.w.tolist(), curve.value.tolist()):
                be = BoundEnergy(1.3, w)
                g = np.array([[green_partial_bound(j, be, r, rp) for rp in pot.radii]
                              for r in pot.radii])
                scale = np.prod(np.abs(np.eye(len(g)) - g * np.array(pot.strengths)).sum(axis=1))
                assert abs(value - det_bound(j, be, pot)) <= 1e-12 * scale


def test_v1pm_algebra_on_constructed_kernels():
    # closed discriminant: g11 - alpha g22 = 0 and alpha < 0 leave
    # disc = 4 alpha g12^2 < 0
    plus, minus, degenerate, closed = _v1pm_parts(1.0, -1.0, 0.5, -1.0)
    assert closed and not degenerate
    assert math.isnan(plus) and math.isnan(minus)
    # qa = 0 exactly: a linear equation with the single root 1 / (g11 + alpha g22)
    plus, minus, degenerate, closed = _v1pm_parts(1.0, 1.0, 1.0, 2.0)
    assert degenerate and not closed
    assert plus == minus == 1.0 / 3.0
    # qa lost to rounding (g12^2 one ulp off g11 g22): the relative test
    g12 = 1.0 + 2.0 ** -52
    plus, minus, degenerate, closed = _v1pm_parts(1.0, 1.0, g12, 2.0)
    assert 0.0 < abs(2.0 * (1.0 - g12 * g12)) < 1e-14
    assert degenerate and plus == minus == 1.0 / 3.0
    # qa = 0 and qb = 0: no root at all
    plus, minus, degenerate, closed = _v1pm_parts(1.0, 1.0, 1.0, -1.0)
    assert degenerate and math.isinf(plus) and math.isinf(minus)
    # both signs of qb label the roots as the quadratic formula does
    # (qb < 0, qb > 0, qb = -0.0, qb = +0.0)
    for g11, g22, g12, alpha in ((-1.0, -0.5, 0.2, 0.7), (1.0, 0.5, 0.2, 0.7),
                                 (1.0, -1.0, 0.5, 1.0), (-0.0, -0.0, 0.5, 1.0)):
        plus, minus, degenerate, closed = _v1pm_parts(g11, g22, g12, alpha)
        qa = alpha * (g11 * g22 - g12 * g12)
        qb = -(g11 + alpha * g22)
        sqrt_d = math.sqrt(qb * qb - 4.0 * qa)
        assert math.isclose(plus, (-qb + sqrt_d) / (2.0 * qa), rel_tol=1e-14)
        assert math.isclose(minus, (-qb - sqrt_d) / (2.0 * qa), rel_tol=1e-14)
    # one array call gives the float calls element by element
    g = np.array([[1.0, -1.0, 0.5, -1.0], [1.0, 1.0, 1.0, 2.0], [1.0, 1.0, 1.0, -1.0],
                  [-1.0, -0.5, 0.2, 0.7], [1.0, 0.5, 0.2, 0.7]])
    for alpha in (-1.0, 2.0, 0.7):
        arrays = _v1pm_parts(g[:, 0], g[:, 1], g[:, 2], alpha)
        for k, row in enumerate(g.tolist()):
            single = _v1pm_parts(*row[:3], alpha)
            for a, s in zip(arrays, single):
                assert a[k] == s or (math.isnan(a[k]) and math.isnan(s))


def test_v1pm_curve_flags_a_closed_discriminant(monkeypatch):
    # no bound kernel has closed the discriminant in any draw tried, so the
    # sampler gets constructed kernel values: a gap where disc < 0
    # (G11, G22, G12) = (1 or 3, -1, 0.5) at alpha = -1: disc = (G11 - 1)^2 - 1
    import qpshell.boundstates as bs

    def fake_kernel(v, w, d, s):
        # image arguments d = r - r', s = r + r' at m = 1
        if d != 0.0:
            return np.full_like(w, 0.5)
        if s == 4.0:
            return np.full_like(w, -1.0)
        return np.where(w < 0.5, 1.0, 3.0)

    monkeypatch.setattr(bs, "_partial_bound_array", fake_kernel)
    plus, minus = bs.sample_v1pm_curve(1, 1.0, 1.0, 2.0, -1.0, n=20)
    for curve in (plus, minus):
        assert (curve.finite == (curve.w >= 0.5)).all()
        assert (np.isnan(curve.value) == ~curve.finite).all()


def test_v2_curve_pole_flags_follow_grid_order(monkeypatch):
    # at V1 = 0 the denominator is G22; a flagged point ends the sign test of
    # the pair after it, so of the changes at (0,1), (1,2), (2,3), (3,4) only
    # the first flags a point (the smaller |den|), and the exact zero its own
    import qpshell.boundstates as bs
    den = np.array([2.0, -1.0, 0.5, 0.0, 1.0, 1.0])

    def fake_kernel(v, w, d, s):
        # image arguments d = r - r', s = r + r' at m = 1
        return den if (d, s) == (0.0, 4.0) else np.zeros_like(w)

    monkeypatch.setattr(bs, "_partial_bound_array", fake_kernel)
    curve = bs.sample_v2_curve(1, 1.0, 1.0, 2.0, 0.0, n=6)
    assert (~curve.finite).tolist() == [False, True, False, True, False, False]
    assert curve.value[curve.finite].tolist() == [0.5, 2.0, 1.0, 1.0]
    assert np.isnan(curve.value[~curve.finite]).all()


def test_level_on_a_scan_grid_point_is_found():
    # V0 = v0_of_w at a point of level_roots' grid puts the level within
    # rounding of that grid point, where the root scan once mistook it for
    # a pole (j = 1, k = 632 and j = 3, k = 147 among them)
    step = (BOUND_W_HI - BOUND_W_LO) / 2000
    for j, k in ((1, 632), (1, 1505), (2, 50), (2, 1214), (3, 147), (3, 1990), (4, 1000)):
        w = BOUND_W_LO + k * step
        pot = ShellPotential.single(v0_of_w(j, BoundEnergy(1.0, w), 1.0), 1.0)
        roots = level_roots(j, 1.0, pot)
        assert len(roots) == 1
        assert abs(roots[0] - w) < 1e-10


def _strength(limit):
    return st.floats(min_value=-limit, max_value=limit)


@settings(deadline=None)
@given(j=st.integers(1, 4), m=st.floats(min_value=1e-320, max_value=1e300),
       a=st.lists(st.floats(min_value=0.0, max_value=1e300, exclude_min=True),
                  min_size=2, max_size=2, unique=True).map(sorted),
       v1=_strength(1e308), v2=_strength(1e308),
       alpha=st.floats(min_value=1e-3, max_value=1e300), alpha_sign=st.sampled_from((-1, 1)),
       n=st.integers(2, 50))
def test_samplers_return_flagged_columns_or_refuse(j, m, a, v1, v2, alpha, alpha_sign, n):
    # whatever the inputs, a sampler gives n samples on the open w grid with
    # NaN exactly at its flags, or a typed refusal; never a warning
    a1, a2 = a
    samplers = (
        lambda: [sample_v0_curve(j, m, a1, n=n)],
        lambda: [sample_v2_curve(j, m, a1, a2, v1, n=n)],
        lambda: [sample_det_curve(j, m, ShellPotential.double(v1, a1, v2, a2), n=n)],
        lambda: sample_v1pm_curve(j, m, a1, a2, alpha_sign * alpha, n=n),
    )
    for sample in samplers:
        try:
            curves = sample()
        except QpshellError:
            continue
        for curve in curves:
            assert len(curve.w) == len(curve.value) == len(curve.finite) == n
            assert (curve.finite == np.isfinite(curve.value)).all()
            assert (np.isnan(curve.value) == ~curve.finite).all()
            assert 0.0 < curve.w[0] and curve.w[-1] < math.pi / 2
            assert (np.diff(curve.w) > 0).all()
