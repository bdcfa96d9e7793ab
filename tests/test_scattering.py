"""Amplitudes, S-matrices, transparency zeros and the plane scan."""

import cmath
import math

import numpy as np
import pytest

from qpshell.errors import (
    AccuracyError,
    DomainError,
    PoleError,
    UnsupportedFormError,
)
from qpshell import scattering
from qpshell.greens import green_partial
from qpshell.kinematics import ALL_VARIANTS, Kinematics, k_factor
from qpshell.scattering import (
    ShellPotential,
    amplitude,
    amplitude_explicit,
    delta_system,
    scan_zero_locus,
    scatter_point,
    single_shell_zero_rapidities,
    sweep,
    wavefunction,
    zero_condition,
    zero_condition_explicit,
)


def test_shell_potential_normalization():
    pot = ShellPotential(((1.0, 2.0), (-2.0, 1.0)))
    assert pot.radii == (1.0, 2.0)          # sorted by radius
    assert pot.strengths == (-2.0, 1.0)
    merged = ShellPotential(((1.0, 2.0), (0.5, 2.0)))
    assert merged.shells == ((1.5, 2.0),)   # equal radii coalesce
    assert ShellPotential.single(2.0, 5.0).shells == ((2.0, 5.0),)
    assert ShellPotential.double(1.0, 3.0, -1.0, 4.0).shells == ((1.0, 3.0), (-1.0, 4.0))
    with pytest.raises(DomainError):
        ShellPotential.single(1.0, 0.0)
    with pytest.raises(DomainError):
        ShellPotential.single(1.0, -2.0)


def test_two_path_single_shell():
    rng = np.random.default_rng(10)
    for _ in range(50):
        j = int(rng.integers(1, 5))
        kin = Kinematics(float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.05, 4.0)))
        pot = ShellPotential.single(float(rng.uniform(-5, 5)), float(rng.uniform(0.1, 6.0)))
        f_gen = amplitude(j, kin, pot)
        f_exp = amplitude_explicit(j, kin, pot)
        assert abs(f_gen - f_exp) <= 1e-12 * max(abs(f_gen), 1e-300)


def test_two_path_double_shell_variant3():
    rng = np.random.default_rng(11)
    for _ in range(50):
        kin = Kinematics(float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.05, 4.0)))
        a1 = float(rng.uniform(0.1, 3.0))
        pot = ShellPotential.double(
            float(rng.uniform(-4, 4)), a1,
            float(rng.uniform(-4, 4)), a1 + float(rng.uniform(0.2, 3.0)),
        )
        f_gen = amplitude(3, kin, pot)
        f_exp = amplitude_explicit(3, kin, pot)
        assert abs(f_gen - f_exp) <= 1e-12 * max(abs(f_gen), 1e-300)


def test_explicit_double_restricted_to_variant3():
    pot = ShellPotential.double(1.0, 3.0, -1.0, 4.0)
    kin = Kinematics(1.0, 0.7)
    for j in (1, 2, 4):
        with pytest.raises(UnsupportedFormError):
            amplitude_explicit(j, kin, pot)


def test_unitarity_random():
    rng = np.random.default_rng(12)
    for _ in range(100):
        j = int(rng.integers(1, 5))
        kin = Kinematics(float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.05, 4.0)))
        if rng.uniform() < 0.5:
            pot = ShellPotential.single(float(rng.uniform(-5, 5)), float(rng.uniform(0.1, 6.0)))
        else:
            a1 = float(rng.uniform(0.1, 3.0))
            pot = ShellPotential.double(
                float(rng.uniform(-4, 4)), a1,
                float(rng.uniform(-4, 4)), a1 + float(rng.uniform(0.2, 3.0)),
            )
        f = amplitude(j, kin, pot)
        assert abs(f.imag - kin.q * abs(f) ** 2) <= 1e-12 * (1.0 + abs(f) ** 2)


def test_scatter_point_consistency():
    kin = Kinematics(1.0, 0.9)
    pot = ShellPotential.double(1.0, 3.0, -1.0, 4.0)
    for j in ALL_VARIANTS:
        sp = scatter_point(j, kin, pot)
        sys = delta_system(j, kin, pot)
        assert abs(sp.s_matrix - (1.0 + 2.0j * kin.q * sp.f)) < 1e-14
        assert abs(sp.s_matrix - sys.delta.conjugate() / sys.delta) < 1e-13
        assert abs(abs(sp.s_matrix) - 1.0) < 1e-13
        assert math.isclose(sp.sigma0, 4.0 * math.pi * abs(sp.f) ** 2, rel_tol=1e-14)
        assert -math.pi / 2 < sp.phase <= math.pi / 2


def test_sweep_unwraps_phase():
    chis = [0.05 + 3.95 * i / 699 for i in range(700)]
    pot = ShellPotential.single(2.0, 5.0)
    for j in ALL_VARIANTS:
        pts = sweep(j, 1.0, pot, chis)
        assert len(pts) == 700
        steps = [abs(b.phase - a.phase) for a, b in zip(pts, pts[1:])]
        # a surviving pi jump would admit a smaller step after shifting, so
        # unwrapping caps every step at pi/2 (narrow resonances come close)
        assert max(steps) < math.pi / 2
        for pt in pts[::97]:
            assert abs(cmath.exp(2j * pt.phase) - pt.s_matrix) < 1e-12


def test_sweep_requires_increasing_grid():
    pot = ShellPotential.single(2.0, 5.0)
    with pytest.raises(DomainError):
        sweep(1, 1.0, pot, [0.5, 0.4])
    with pytest.raises(DomainError):
        sweep(1, 1.0, pot, [0.0, 0.5])


def test_transparency_zeros_shared_by_variants():
    pot = ShellPotential.single(2.0, 5.0)
    zeros = single_shell_zero_rapidities(1.0, 5.0, 6.3)
    assert zeros == pytest.approx([math.pi * n / 5.0 for n in range(1, 11)], abs=0)
    for j in ALL_VARIANTS:
        for chi in zeros:
            assert abs(amplitude(j, Kinematics(1.0, chi), pot)) < 1e-12


def test_pole_at_critical_strength():
    # at a transparency rapidity the denominator is real; the strength
    # 1 / Re G(a, a) zeroes it exactly
    m, a = 1.0, 2.0
    kin = Kinematics(m, math.pi / (m * a))
    v0c = 1.0 / green_partial(1, kin, a, a).real
    with pytest.raises(PoleError):
        amplitude(1, kin, ShellPotential.single(v0c, a))
    # slightly off the critical strength is evaluable again
    amplitude(1, kin, ShellPotential.single(1.01 * v0c, a))


def test_wavefunction_origin_and_shells():
    kin = Kinematics(1.0, 0.8)
    pot = ShellPotential.double(1.0, 3.0, -1.0, 4.0)
    for j in ALL_VARIANTS:
        assert wavefunction(j, kin, pot, 0.0) == 0.0
        sys = delta_system(j, kin, pot)
        for (v, a), num in zip(pot.shells, sys.numerators):
            got = wavefunction(j, kin, pot, a)
            assert abs(got - num / sys.delta) < 1e-12 * (1.0 + abs(got))


def test_wavefunction_far_field():
    # outgoing form sin(chi m r) + q f e^{i chi m r} holds once the
    # hyperbolic prefactors saturate
    kin = Kinematics(1.0, 0.8)
    pot = ShellPotential.double(1.0, 3.0, -1.0, 4.0)
    for j in ALL_VARIANTS:
        f = amplitude(j, kin, pot)
        r = 25.0
        expected = math.sin(kin.chi * kin.m * r) + kin.q * f * cmath.exp(1j * kin.chi * kin.m * r)
        assert abs(wavefunction(j, kin, pot, r) - expected) < 1e-12


def test_zero_condition_routes_agree():
    rng = np.random.default_rng(13)
    for _ in range(50):
        kin = Kinematics(float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.1, 3.0)))
        a1 = float(rng.uniform(0.2, 3.0))
        pot = ShellPotential.double(
            float(rng.uniform(-3, 3)), a1,
            float(rng.uniform(-3, 3)), a1 + float(rng.uniform(0.2, 3.0)),
        )
        lhs = zero_condition(3, kin, pot)
        rhs = zero_condition_explicit(kin, pot)
        assert abs(lhs - rhs) < 1e-12 * (1.0 + abs(lhs))


def test_zero_condition_roots_kill_amplitude():
    from qpshell.numerics import find_roots_scan

    pot = ShellPotential.double(1.0, 3.0, -1.0, 4.0)
    for j in (1, 4):
        roots = find_roots_scan(
            lambda chi: zero_condition(j, Kinematics(1.0, chi), pot), 0.3, 2.0,
            n_scan=800,
        )
        assert roots
        for root in roots:
            assert abs(amplitude(j, Kinematics(1.0, root.x), pot)) < 1e-10


def test_zero_condition_needs_two_shells():
    with pytest.raises(DomainError):
        zero_condition(1, Kinematics(1.0, 0.5), ShellPotential.single(2.0, 5.0))


def test_scan_window_may_touch_inner_radius():
    # the left window edge sits exactly at a2 = a1, where the two shells
    # coalesce: the scan must treat the column continuously, not reject it
    locus = scan_zero_locus(1, 1.0, 3.0, 1.0, -1.0, (3.0, 5.0), (0.5, 2.0),
                            grid=(40, 40))
    assert locus.curves
    worst = max(r for c in locus.curves for (_, _, r) in c)
    assert worst < 1e-8


def test_scan_residuals_and_determinism():
    kwargs = dict(grid=(48, 48))
    a = scan_zero_locus(4, 1.0, 3.0, 1.0, -1.0, (3.0, 8.0), (0.1, 3.0), **kwargs)
    b = scan_zero_locus(4, 1.0, 3.0, 1.0, -1.0, (3.0, 8.0), (0.1, 3.0), **kwargs)
    assert a.curves == b.curves
    assert a.curves
    for curve in a.curves:
        assert len(curve) >= 2
        for _x, _y, residual in curve:
            assert residual < 1e-8


def test_scan_degenerate_outer_zero():
    # V2 = 0: remaining shell is transparent on chi = pi n / (m a1) lines
    locus = scan_zero_locus(2, 1.0, 3.0, 1.0, 0.0, (3.0, 8.0), (0.1, 3.0),
                            grid=(24, 24))
    assert locus.curves
    for curve in locus.curves:
        ys = {y for (_x, y, _r) in curve}
        assert len(ys) == 1
        (y,) = ys
        assert min(abs(y - math.pi * n / 3.0) for n in (1, 2)) < 1e-14


def test_scan_degenerate_inner_zero():
    # V1 = 0: zeros ride the hyperbolas chi = pi n / (m a2)
    locus = scan_zero_locus(3, 1.0, 3.0, 0.0, -1.0, (3.0, 8.0), (0.1, 3.0),
                            grid=(24, 24))
    assert locus.curves
    for curve in locus.curves:
        for x, y, residual in curve:
            n = round(y * x / math.pi)
            assert n >= 1
            assert abs(y - math.pi * n / x) < 1e-12
            assert residual < 1e-12


def test_scan_rejects_degenerate_input():
    with pytest.raises(DomainError):
        scan_zero_locus(1, 1.0, 3.0, 0.0, 0.0, (3.0, 8.0), (0.1, 3.0))
    with pytest.raises(DomainError):
        scan_zero_locus(1, 1.0, 3.0, 1.0, -1.0, (3.0, 8.0), (0.1, 3.0), grid=(8, 40))


def test_scan_readme_example_is_complete():
    # the 300^2 window of the README: a scan that drops cells or vertices
    # shows here as fewer curves or vertices
    locus = scan_zero_locus(1, 1.0, 3.0, 1.0, -1.0, (3.0, 8.0), (0.1, 3.0), grid=(300, 300))
    assert len(locus.curves) == 15
    assert sum(len(c) for c in locus.curves) == 3539
    assert max(r for c in locus.curves for (_, _, r) in c) < 1e-10


def _explicit_terms(kin, pot):
    """1 + the sum of the magnitudes of the terms zero_condition_explicit adds."""
    m, chi = kin.m, kin.chi
    (v1, a1), (v2, a2) = pot.shells

    def s(x):
        return math.sin(chi * m * x)

    def th(x):
        return math.tanh(math.pi * m * x)

    s1, s2 = s(a1), s(a2)
    bracket = (abs(2 * s1 * s2 * th((a2 - a1) / 2) * s(a2 - a1))
               + abs(2 * s1 * s2 * th((a2 + a1) / 2) * s(a2 + a1))
               + abs(th(a1) * s(2 * a1) * s2 * s2) + abs(th(a2) * s(2 * a2) * s1 * s1))
    return (1.0 + abs(v1 * s1 * s1) + abs(v2 * s2 * s2)
            + abs(v1 * v2) * bracket / k_factor(3, kin))


def test_scan_vertices_satisfy_expanded_condition():
    # the expanded variant-3 form shares no code with the array kernel
    locus = scan_zero_locus(3, 1.0, 3.0, 1.0, -1.0, (3.0, 8.0), (0.1, 3.0), grid=(64, 64))
    # at a2 = a1 the shells merge and the two-shell form does not apply
    vertices = [v for c in locus.curves for v in c if v[0] != 3.0]
    assert len(vertices) > 100
    for x, y, _residual in vertices:
        kin = Kinematics(1.0, y)
        pot = ShellPotential.double(1.0, 3.0, -1.0, x)
        assert abs(zero_condition_explicit(kin, pot)) / _explicit_terms(kin, pot) < 1e-8


def test_scan_refinement_stall_raises(monkeypatch):
    monkeypatch.setattr(scattering, "_VERTEX_RESIDUAL", 0.0)
    with pytest.raises(AccuracyError, match="stalled"):
        scan_zero_locus(1, 1.0, 3.0, 1.0, -1.0, (3.0, 8.0), (0.1, 3.0), grid=(16, 16))


def test_scan_non_finite_field_raises():
    # V1 V2 overflows to -inf, so the field is non-finite
    with pytest.raises(AccuracyError, match="non-finite"):
        scan_zero_locus(1, 1.0, 3.0, 1e200, -1e200, (3.0, 8.0), (0.1, 3.0), grid=(16, 16))
