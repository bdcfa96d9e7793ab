"""Amplitudes, S-matrices, transparency zeros and the plane scan."""

import cmath
import math
import re

import numpy as np
import pytest

from qpshell.errors import (
    AccuracyError,
    DomainError,
    PoleError,
    QpshellError,
    ThresholdError,
    UnsupportedFormError,
)
from qpshell import scattering
from qpshell.boundstates import bound_wavefunction, v0_of_w
from qpshell.greens import green_partial
from qpshell.kinematics import ALL_VARIANTS, BoundEnergy, Kinematics, k_factor
from qpshell.nonrel import nr_wavefunction
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


def test_explicit_refuses_three_shells():
    pot = ShellPotential(((1.0, 3.0), (-1.0, 4.0), (0.5, 5.5)))
    for j in ALL_VARIANTS:
        with pytest.raises(UnsupportedFormError):
            amplitude_explicit(j, Kinematics(1.0, 0.7), pot)


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


def _random_shells(rng, n):
    """n shells at distinct random radii in (0.1, 6), strengths in (-4, 4)."""
    radii = np.sort(rng.uniform(0.1, 6.0, n))
    return ShellPotential(tuple(zip(rng.uniform(-4, 4, n).tolist(), radii.tolist())))


def _random_point(rng):
    return int(rng.integers(1, 5)), Kinematics(float(rng.uniform(0.2, 3.0)),
                                               float(rng.uniform(0.05, 4.0)))


def test_unitarity_many_shells():
    rng = np.random.default_rng(14)
    for _ in range(300):
        j, kin = _random_point(rng)
        f = amplitude(j, kin, _random_shells(rng, int(rng.integers(3, 5))))
        assert abs(f.imag - kin.q * abs(f) ** 2) <= 1e-12 * (1.0 + abs(f) ** 2)


def test_zero_strength_shell_drops_out():
    rng = np.random.default_rng(15)
    for _ in range(100):
        j, kin = _random_point(rng)
        shells = _random_shells(rng, 4).shells
        k = int(rng.integers(0, 4))
        off = ShellPotential(tuple((0.0, a) if i == k else (v, a)
                                   for i, (v, a) in enumerate(shells)))
        gone = ShellPotential(shells[:k] + shells[k + 1:])
        f_gone = amplitude(j, kin, gone)
        assert abs(amplitude(j, kin, off) - f_gone) <= 1e-14 * abs(f_gone)


def test_shell_potential_merges_every_equal_radius():
    pot = ShellPotential(((1.0, 2.0), (3.0, 5.0), (0.5, 2.0), (-1.0, 1.0), (2.0, 5.0)))
    assert pot.shells == ((-1.0, 1.0), (1.5, 2.0), (5.0, 5.0))
    with pytest.raises(DomainError):
        ShellPotential(())


def test_system_determinant_is_the_complex_det():
    # D = det A + i c against numpy's LU det of 1 - G V with the complex
    # kernels, which never splits G into its real and imaginary parts
    rng = np.random.default_rng(16)
    for _ in range(200):
        j, kin = _random_point(rng)
        pot = _random_shells(rng, int(rng.integers(1, 5)))
        radii = pot.radii
        g = np.array([[green_partial(j, kin, r, rp) for rp in radii] for r in radii])
        ref = np.linalg.det(np.eye(len(radii)) - g * np.array(pot.strengths))
        assert abs(delta_system(j, kin, pot).delta - ref) <= 1e-12 * abs(ref)


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
        sw = sweep(j, 1.0, pot, chis)
        assert all(len(col) == 700 for col in sw.columns())
        steps = np.abs(np.diff(sw.phase))
        # a surviving pi jump would admit a smaller step after shifting, so
        # unwrapping caps every step at pi/2 (narrow resonances come close)
        assert steps.max() < math.pi / 2
        for phase, s_mat in zip(sw.phase[::97], sw.s_matrix[::97]):
            assert abs(cmath.exp(2j * phase) - s_mat) < 1e-12


def test_sweep_requires_increasing_grid():
    pot = ShellPotential.single(2.0, 5.0)
    with pytest.raises(DomainError):
        sweep(1, 1.0, pot, [0.5, 0.4])
    with pytest.raises(DomainError):
        sweep(1, 1.0, pot, [0.0, 0.5])


SWEEP_POTENTIALS = (
    ShellPotential.single(2.0, 5.0),
    ShellPotential.single(-3.0, 2e-5),                   # m (r + r') on the series branch
    ShellPotential.double(1.0, 3.0, -1.0, 4.0),
    ShellPotential.double(2.0, 1.0, -3.0, 1.00002),      # m |r - r'| on the series branch
    ShellPotential(((1.0, 3.0), (-1.0, 4.0), (0.5, 5.5))),
    ShellPotential(((1.5, 0.7), (-2.0, 1.9), (0.8, 3.1), (-0.4, 4.6))),
)


@pytest.mark.parametrize("pot", SWEEP_POTENTIALS)
def test_sweep_matches_scatter_point(pot):
    # the array sweep against numpy's LU det D of 1 - G V with the scalar
    # complex kernels, point by point: q f = -Im D / D and S = conj(D) / D.
    # scatter_point is a one-point sweep and must give its row.  Every
    # diagonal kernel entry (r = r') takes the series branch
    chis = [0.05 + 3.95 * i / 199 for i in range(200)]
    radii, strengths = pot.radii, np.array(pot.strengths)
    for m in (0.7, 1.6):
        for j in ALL_VARIANTS:
            sw = sweep(j, m, pot, chis)
            assert sw.j == j and sw.chi.tolist() == chis
            for k, chi in enumerate(chis):
                kin = Kinematics(m, chi)
                g = np.array([[green_partial(j, kin, r, rp) for rp in radii] for r in radii])
                d_ref = np.linalg.det(np.eye(len(radii)) - g * strengths)
                s_ref = d_ref.conjugate() / d_ref
                assert abs(sw.q[k] - kin.q) <= 1e-15 * kin.q
                assert abs(sw.q[k] * sw.f[k] + d_ref.imag / d_ref) <= 1e-12
                assert abs(sw.s_matrix[k] - s_ref) <= 1e-12
                turn = sw.phase[k] - cmath.phase(s_ref) / 2.0  # unwrapping adds pi n
                assert abs(turn - math.pi * round(turn / math.pi)) <= 1e-12
                assert math.isclose(sw.sigma0[k], 4.0 * math.pi * abs(sw.f[k]) ** 2,
                                    rel_tol=1e-15)
                if k % 50 == 0:
                    sp = scatter_point(j, kin, pot)
                    assert abs(sp.q * sp.f - sw.q[k] * sw.f[k]) <= 1e-14
                    assert abs(sp.s_matrix - sw.s_matrix[k]) <= 1e-14


def test_sweep_columns_are_read_only():
    sw = sweep(1, 1.0, ShellPotential.single(2.0, 5.0), [0.5, 1.0])
    for col in sw.columns():
        with pytest.raises(ValueError):
            col[0] = 0.0


def _scalar_outcome(j, m, pot, grid):
    """(type, chi) of the first failure of a scatter_point loop over grid."""
    for chi in grid:
        try:
            scatter_point(j, Kinematics(m, chi), pot)
        except QpshellError as exc:
            return type(exc), chi
    return None


def _sweep_outcome(j, m, pot, grid):
    try:
        sweep(j, m, pot, grid)
    except QpshellError as exc:
        return type(exc), exc
    return None


@pytest.mark.parametrize("j, grid, error, bad", [
    (1, [0.5, 1.0, math.nan], DomainError, math.nan),
    (1, [0.5, math.nan, 0.7], DomainError, math.nan),   # NaN escapes the order test
    (3, [0.5, math.inf], DomainError, math.inf),
    (1, [1.0, 399.0, 400.0], DomainError, 399.0),       # K_1 = m sinh(2 chi) overflows
    (4, [700.0, 710.0, 720.0], DomainError, 710.0),     # K_4 = 2 m sinh(chi) overflows
])
def test_sweep_refuses_at_the_first_failing_rapidity(j, grid, error, bad):
    pot = ShellPotential.single(2.0, 5.0)
    kind, exc = _sweep_outcome(j, 1.0, pot, grid)
    assert kind is error
    assert f"chi = {bad!r}" in str(exc) or f"got {bad!r}" in str(exc)
    scalar_kind, scalar_chi = _scalar_outcome(j, 1.0, pot, grid)
    assert scalar_kind is kind and repr(scalar_chi) == repr(bad)


@pytest.mark.parametrize("j, m, a, grid, bad", [
    (1, 1e200, 1e200, [0.1, 0.5], 0.1),
    (3, 1e300, 1e7, [1.0, 10.0], 10.0),   # chi m 2a overflows while K_3 stays finite
])
def test_sweep_refuses_a_non_finite_chi_m_r_as_scatter_point_does(j, m, a, grid, bad):
    pot = ShellPotential.single(2.0, a)
    kind, exc = _sweep_outcome(j, m, pot, grid)
    assert kind is DomainError and "chi m r is not finite" in str(exc)
    with pytest.raises(DomainError) as scalar:
        scatter_point(j, Kinematics(m, bad), pot)
    assert str(scalar.value) == str(exc)
    assert _scalar_outcome(j, m, pot, grid) == (DomainError, bad)


@pytest.mark.parametrize("j, m, chi", [
    (4, 1.0, 1e-310),      # K_4 / m = 2 sinh(chi) = 2e-310 is subnormal, 2 / K_4 overflows
    (3, 0.5, 5e-324),      # K_3 / m = 1e-323, at any m
])
def test_reduced_flux_factor_underflow_is_a_threshold_refusal(j, m, chi):
    pot = ShellPotential.single(2.0, 5.0)
    kin = Kinematics(m, chi)
    for call in (lambda: sweep(j, m, pot, [chi, 1.0]), lambda: scatter_point(j, kin, pot),
                 lambda: amplitude(j, kin, pot), lambda: delta_system(j, kin, pot)):
        with pytest.raises(ThresholdError, match=rf"^2 / K_{j} overflows at chi = {chi!r}, "):
            call()


@pytest.mark.parametrize("j, m, chi", [
    (4, 1e-300, 1e-300),   # q = m sinh(chi) underflows to 0
    (3, 1e-300, 1e-10),    # q = 1e-310 is subnormal
])
def test_flux_factor_underflow_is_a_threshold_refusal(j, m, chi):
    # K_j = m (K_j / m) underflows, but the reduced system needs only K_j / m,
    # which is normal here: D exists; f = -c / (q D) cannot be formed, since
    # q = m sinh(chi) is below the normal range
    pot = ShellPotential.single(2.0, 5.0)
    kin = Kinematics(m, chi)
    for call in (lambda: sweep(j, m, pot, [chi, 1.0]), lambda: scatter_point(j, kin, pot),
                 lambda: amplitude(j, kin, pot)):
        with pytest.raises(ThresholdError,
                           match=rf"^q = m sinh\(chi\) underflows at chi = {chi!r}, m = {m!r}$"):
            call()
    assert math.isfinite(abs(delta_system(j, kin, pot).delta))


@pytest.mark.parametrize("m, grid, error", [
    (math.nan, [0.5, 1.0], DomainError),
    (-1.0, [0.5, 1.0], DomainError),
    (0.0, [0.5, 1.0], DomainError),
    (math.inf, [0.5, 1.0], DomainError),
    (1.0, [], DomainError),
    (1.0, [0.5, 0.5], DomainError),
    (1.0, [0.5, 1.0, 0.7], DomainError),
    (1.0, [0.0, 0.5], ThresholdError),
    (1.0, [0.5, -1.0], ThresholdError),
])
def test_sweep_refuses_bad_mass_and_grids(m, grid, error):
    with pytest.raises(error):
        sweep(2, m, ShellPotential.single(2.0, 5.0), grid)


def test_sweep_born_underflow_is_finite():
    # K_3 and q are finite at chi = 400, q K_3 is not: f underflows to 0
    sw = sweep(3, 1.0, ShellPotential.single(2.0, 5.0), [399.0, 400.0])
    assert sw.f.tolist() == [0.0, 0.0]
    assert sw.s_matrix.tolist() == [1.0, 1.0]
    assert np.isfinite(sw.phase).all() and np.isfinite(sw.q).all()


def _force_kernel(monkeypatch, forced):
    """The real system's kernel gives Re G = forced[chi] at the rapidities in
    forced."""
    array = scattering._partial_re_array

    def forced_array(v, chi, kt, sech_den, d, s):
        g = array(v, chi, kt, sech_den, d, s)
        for chi_at, value in forced.items():
            g = np.where(chi == chi_at, value, g)
        return g

    monkeypatch.setattr(scattering, "_partial_re_array", forced_array)


# V = 2 at a = 5: Re G = 0.5 makes 1 - G V = 0, and at chi = pi / 5, where
# sin(chi m a) ~ 1e-16, D ~ 1e-32 is a pole; Re G = NaN makes D and S NaN
_POLE_CHI = math.pi / 5.0


@pytest.mark.parametrize("forced, error, chi_at", [
    ({_POLE_CHI: 0.5}, PoleError, _POLE_CHI),
    ({_POLE_CHI: math.nan}, AccuracyError, _POLE_CHI),
    ({0.5: math.nan, _POLE_CHI: 0.5}, AccuracyError, 0.5),
    ({_POLE_CHI: 0.5, 1.0: math.nan}, PoleError, _POLE_CHI),
])
def test_sweep_forced_failure_comes_before_a_later_overflow(monkeypatch, forced, error,
                                                            chi_at):
    # K_1 overflows at chi = 399, after every forced point
    pot = ShellPotential.single(2.0, 5.0)
    grid = [0.3, 0.5, _POLE_CHI, 1.0, 399.0, 400.0]
    _force_kernel(monkeypatch, forced)
    kind, exc = _sweep_outcome(1, 1.0, pot, grid)
    assert kind is error
    assert f"chi = {chi_at!r}" in str(exc)
    assert _scalar_outcome(1, 1.0, pot, grid) == (error, chi_at)
    # without the forced points, the overflow decides
    assert _sweep_outcome(1, 1.0, pot, [0.3, 1.2, 399.0])[0] is DomainError


# f is finite but 4 pi |f|^2 overflows: |f| = 1e154 at chi = 0.001
_HUGE_F = (1, 1e-160, ShellPotential.single(-1e146, 1e4))


def test_sweep_refuses_an_overflowing_cross_section(monkeypatch):
    j, m, pot = _HUGE_F
    message = "cross section 4 pi |f|^2 overflows at chi = 0.001"
    with pytest.raises(DomainError, match=re.escape(message)):
        sweep(j, m, pot, [0.001, 1.0])
    with pytest.raises(DomainError, match=re.escape(message)):
        scatter_point(j, Kinematics(m, 0.001), pot)
    # in grid order: before a later K_1 overflow, after an earlier S failure
    kind, exc = _sweep_outcome(j, m, pot, [0.001, 1.0, 399.0, 400.0])
    assert kind is DomainError and message in str(exc)
    _force_kernel(monkeypatch, {0.0005: math.nan})
    assert _sweep_outcome(j, m, pot, [0.0005, 0.001])[0] is AccuracyError


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


def _bound_psi(r):
    pot = ShellPotential.single(v0_of_w(1, BoundEnergy(1.0, 0.6), 1.0), 1.0)
    return bound_wavefunction(1, 1.0, 0.6, pot)[0](r)


_WAVES = {
    "scattering": lambda r: wavefunction(1, Kinematics(1.0, 0.8),
                                         ShellPotential.double(1.0, 3.0, -1.0, 4.0), r),
    "nonrel": lambda r: nr_wavefunction(0.8, ShellPotential.double(1.0, 3.0, -1.0, 4.0), r),
    "bound": _bound_psi,
}


@pytest.mark.parametrize("r, message", [
    (math.nan, "r must be finite, got nan"),
    (math.inf, "r must be finite, got inf"),
    (-math.inf, "r must be non-negative, got -inf"),
])
@pytest.mark.parametrize("wave", sorted(_WAVES))
def test_wavefunctions_refuse_a_non_finite_radius(wave, r, message):
    with pytest.raises(DomainError) as exc:
        _WAVES[wave](r)
    assert str(exc.value) == message


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


def test_zero_condition_refuses_non_finite_reach():
    # m (a1 + a1) = 2e400 overflows, so sin(chi m r) has no value there
    with pytest.raises(DomainError, match=r"chi m r is not finite at chi = 0\.1, m = 1e\+200, "
                                          r"r \+ r' = 1e\+200 \+ 1e\+200$"):
        zero_condition(1, Kinematics(1e200, 0.1), ShellPotential.double(2, 1e200, -3, 1.5e200))


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


# Sampled vertices of the README window, (curve_id, vertex_id, x, y), as
# midpoint bisection placed them: any refinement must find the same zeros.
README_WINDOW = {
    1: (15, 3539, [(0, 1, 3.0000000009967334, 0.1096989966555184),
                   (4, 111, 7.601866515932674, 2.7187290969899665),
                   (6, 783, 5.642140468227424, 1.4430646156686604),
                   (8, 637, 3.1272268847478273, 2.5635451505016724),
                   (14, 3, 5.993311036789297, 2.099275731163281)]),
    2: (13, 3314, [(0, 1, 3.0000000009967334, 0.1096989966555184),
                   (4, 95, 7.531772575250836, 2.7152923524728596),
                   (6, 730, 5.506011120576323, 1.3705685618729098),
                   (8, 601, 3.100334448160535, 2.5746048668704704),
                   (12, 3, 7.481605351170568, 2.1035010978130995)]),
    3: (20, 4280, [(0, 1, 3.0000000009967334, 0.1096989966555184),
                   (6, 6, 7.916387959866221, 0.6390042183428604),
                   (7, 1001, 5.591973244147157, 1.5082205747730757),
                   (9, 696, 3.000000000031148, 2.4180602006688963),
                   (19, 3, 7.7324414715719065, 2.655367360226686)]),
    4: (14, 3384, [(0, 1, 3.0000000009967334, 0.1096989966555184),
                   (5, 7, 7.565217391304348, 2.9784625476967523),
                   (6, 808, 5.725752508361204, 1.4575947016851365),
                   (8, 584, 3.0000000002491833, 2.6023411371237457),
                   (13, 3, 7.481605351170568, 2.1035191375874356)]),
}


def test_scan_readme_example_is_complete():
    # the 300^2 window of the README for every variant: a scan that drops
    # cells or vertices shows here as fewer curves or vertices, and a vertex
    # refined to a different zero as a sampled vertex that moved
    for j, (n_curves, n_vertices, sampled) in README_WINDOW.items():
        locus = scan_zero_locus(j, 1.0, 3.0, 1.0, -1.0, (3.0, 8.0), (0.1, 3.0),
                                grid=(300, 300))
        assert len(locus.curves) == n_curves
        assert sum(len(c) for c in locus.curves) == n_vertices
        assert max(r for c in locus.curves for (_, _, r) in c) < 1e-10
        for ci, vi, x, y in sampled:
            vx, vy, _ = locus.curves[ci][vi]
            assert abs(vx - x) < 1e-7 and abs(vy - y) < 1e-7


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


def _spy_chain(monkeypatch):
    """Record the (segments, vertices) that scan_zero_locus chains."""
    seen = []
    chain = scattering._chain_segments

    def spy(segments, vertices):
        seen.append((list(segments), vertices))
        return chain(segments, vertices)

    monkeypatch.setattr(scattering, "_chain_segments", spy)
    return seen


@pytest.mark.parametrize("c, expected", [
    # the centre is on corner (ix, iy)'s side: its diagonal joins through it
    (2.5e-4, {("left", "top"), ("bottom", "right")}),
    # the centre is on the other side: corner (ix, iy) is cut off
    (-2.5e-4, {("left", "bottom"), ("top", "right")}),
])
def test_scan_saddle_segments_follow_the_centre(monkeypatch, c, expected):
    # f = (a2 - mid)(chi - mid) + c with (mid, mid) the centre of cell (7, 7):
    # its corners read +h^2, -h^2, +h^2, -h^2 (h = half a step, h^2 > |c|)
    # and its centre mean is c, so that cell is the only saddle
    n = 16
    xs = 1.0 + np.arange(n) / (n - 1)
    ix = 7
    mid = 0.5 * (xs[ix] + xs[ix + 1])
    monkeypatch.setattr(scattering, "_zero_condition_raw",
                        lambda v, chi, g1, x1, g2, x2: (x2 - mid) * (chi - mid) + c)
    seen = _spy_chain(monkeypatch)
    scan_zero_locus(1, 1.0, 1.0, 1.0, 1.0, (1.0, 2.0), (1.0, 2.0), grid=(n, n))
    (segments, vertices), = seen
    lo, hi = xs[ix], xs[ix + 1]

    def side(e):
        x, y, _ = vertices[e]
        if lo < y < hi:
            return {lo: "left", hi: "right"}.get(x)
        if lo < x < hi:
            return {lo: "bottom", hi: "top"}.get(y)
        return None

    named = {frozenset((side(a), side(b))) for a, b in segments}
    assert {s for s in named if None not in s} == set(map(frozenset, expected))


def test_chain_segments_walks_paths_then_loops(monkeypatch):
    seen = _spy_chain(monkeypatch)
    locus = scan_zero_locus(3, 1.0, 3.0, 1.0, -1.0, (3.0, 8.0), (0.1, 3.0), grid=(48, 48))
    (segments, vertices), = seen
    edge_of = {v: e for e, v in vertices.items()}
    loops = [c for c in locus.curves if c[0] == c[-1]]
    assert loops and len(loops) < len(locus.curves)
    # open paths first, then loops, each kind in the order of its start id
    starts = [edge_of[c[0]] for c in locus.curves]
    n_paths = len(locus.curves) - len(loops)
    assert all(c[0] != c[-1] for c in locus.curves[:n_paths])
    assert starts[:n_paths] == sorted(starts[:n_paths])
    assert starts[n_paths:] == sorted(starts[n_paths:])
    for curve in locus.curves:
        ids = [edge_of[v] for v in curve]
        if curve in loops:
            assert ids[0] == min(ids) and ids[1] < ids[-2]
        else:
            assert ids[0] < ids[-1]
    rng = np.random.default_rng(17)
    for _ in range(3):
        shuffled = [tuple(s[::-1]) if rng.random() < 0.5 else tuple(s)
                    for s in rng.permutation(segments).tolist()]
        assert scattering._chain_segments(shuffled, vertices) == locus.curves


def test_scan_refinement_stall_raises(monkeypatch):
    monkeypatch.setattr(scattering, "_VERTEX_RESIDUAL", 0.0)
    with pytest.raises(AccuracyError, match="stalled"):
        scan_zero_locus(1, 1.0, 3.0, 1.0, -1.0, (3.0, 8.0), (0.1, 3.0), grid=(16, 16))


def _crossing_edges(g, n=60, h=0.05, seed=3):
    """cond(n, points) for the condition g(x + y - 2.5), and n axis-parallel
    edges of length h across the line x + y = 2.5 (half along x, half along
    y) as neg, pos, f_neg, f_pos."""
    rng = np.random.default_rng(seed)
    fixed = rng.uniform(1.0, 1.5, n)
    start = 2.5 - fixed - rng.uniform(0.0, h, n)
    along_x = np.arange(n) % 2 == 0
    a = (np.where(along_x, start, fixed), np.where(along_x, fixed, start))
    b = (np.where(along_x, start + h, fixed), np.where(along_x, fixed, start + h))
    f_a, f_b = g(a[0] + a[1] - 2.5), g(b[0] + b[1] - 2.5)
    a_neg = f_a < 0
    neg = tuple(np.where(a_neg, ca, cb) for ca, cb in zip(a, b))
    pos = tuple(np.where(a_neg, cb, ca) for ca, cb in zip(a, b))
    f_neg, f_pos = np.where(a_neg, f_a, f_b), np.where(a_neg, f_b, f_a)
    assert (f_neg < 0).all() and (f_pos >= 0).all()

    def cond(n, points):
        x, y = points(np.arange(n))
        return g(x + y - 2.5)

    return cond, neg, pos, f_neg, f_pos


@pytest.mark.parametrize("g", [
    lambda u: 3.0 * u,                  # linear: one false-position step
    lambda u: np.tanh(300.0 * u),       # steep: nearly a step across the edge
    lambda u: u ** 3,                   # flat crossing: zero slope at the root
], ids=["linear", "steep_tanh", "flat_cubic"])
def test_refine_edge_zero_synthetic_conditions(g):
    cond, neg, pos, f_neg, f_pos = _crossing_edges(g)
    calls = []

    def counted(n, points):
        calls.append(n)
        return cond(n, points)

    x, y, res = scattering._refine_edge_zero(counted, neg, pos, f_neg, f_pos)
    assert len(calls) < scattering._MAX_EDGE_BISECT
    # row k belongs to edge k: on it, within its bracket, not at its negative end
    for c, lo, hi in ((x, neg[0], pos[0]), (y, neg[1], pos[1])):
        fixed = lo == hi
        assert (c[fixed] == lo[fixed]).all()
        assert ((c - lo) * (hi - c) >= 0).all()
    assert ((x != neg[0]) | (y != neg[1])).all()
    assert (res < 1e-10).all()
    assert (res == np.abs(g(x + y - 2.5))).all()


def test_refine_edge_zero_needs_few_rounds_on_a_smooth_condition():
    cond, *edges = _crossing_edges(lambda u: np.sin(u) + 0.3 * u * u)
    calls = []
    scattering._refine_edge_zero(lambda n, p: calls.append(n) or cond(n, p), *edges)
    # bisection needs about 29 rounds to take a 0.05 edge below 1e-10
    assert len(calls) <= 8


def test_refine_edge_zero_takes_an_exact_zero_end():
    cond, neg, pos, f_neg, f_pos = _crossing_edges(lambda u: u, n=4)
    f_pos = f_pos.copy()
    f_pos[1] = 0.0
    seen = []

    def spy(n, points):
        seen.append(points(np.arange(n)))
        return cond(n, points)

    x, y, res = scattering._refine_edge_zero(spy, neg, pos, f_neg, f_pos)
    assert (x[1], y[1], res[1]) == (pos[0][1], pos[1][1], 0.0)
    # that edge costs no evaluation
    assert all(len(px) == 3 for px, _ in seen)


def test_refine_edge_zero_stalls_at_once_on_a_bracket_that_cannot_shrink():
    # a step: no point has |cond| < 1e-10, so the bracket closes on the jump
    def step(n, points):
        x, _ = points(np.arange(n))
        calls.append(n)
        return np.where(x < 1.3, -1.0, 1.0)

    calls = []
    edge = (np.array([1.25]), np.array([2.0])), (np.array([1.35]), np.array([2.0]))
    with pytest.raises(AccuracyError, match="stalled near"):
        scattering._refine_edge_zero(step, *edge, np.array([-1.0]), np.array([1.0]))
    assert 0 < len(calls) < scattering._MAX_EDGE_BISECT
    # ends that are neighbouring floats stall before any evaluation
    calls = []
    lo = 1.3
    edge = (np.array([lo]), np.array([2.0])), (np.array([math.nextafter(lo, 2)]), np.array([2.0]))
    with pytest.raises(AccuracyError, match=r"stalled near \(x, y\) = \(1\.3, 2\.0\) "
                                            r"with residual 1\.000e\+00"):
        scattering._refine_edge_zero(step, *edge, np.array([-1.0]), np.array([1.0]))
    assert calls == []


def test_scan_non_finite_field_raises():
    # V1 V2 overflows to -inf, so the field is non-finite
    with pytest.raises(AccuracyError, match="non-finite"):
        scan_zero_locus(1, 1.0, 3.0, 1e200, -1e200, (3.0, 8.0), (0.1, 3.0), grid=(16, 16))
