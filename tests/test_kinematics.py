"""Rapidity kinematics: round trips, K-factors, domain guards."""

import math

import pytest

from qpshell import boundstates, greens, nonrel, scattering
from qpshell.errors import DomainError, ThresholdError
from qpshell.kinematics import (
    ALL_VARIANTS,
    BoundEnergy,
    EquationVariant,
    Kinematics,
    k_factor,
    k_factor_bound,
    momentum_from_rapidity,
    rapidity_from_momentum,
)


def test_momentum_rapidity_round_trip():
    for q in (1e-6, 0.01, 0.521095, 3.0, 50.0):
        chi = rapidity_from_momentum(q, 1.0)
        assert math.isclose(momentum_from_rapidity(chi, 1.0), q, rel_tol=1e-14)
    # non-unit mass
    chi = rapidity_from_momentum(0.8, 2.5)
    assert math.isclose(2.5 * math.sinh(chi), 0.8, rel_tol=1e-14)


def test_rapidity_matches_high_precision_value():
    # sinh(0.5) = 0.5210953054937474
    out = rapidity_from_momentum(0.521095, 1.0)
    assert abs(math.sinh(out) - 0.521095) < 1e-6
    assert abs(out - 0.5) < 1e-5


def test_kinematics_fields():
    kin = Kinematics(1.0, 0.5)
    assert math.isclose(kin.q, math.sinh(0.5), rel_tol=1e-15)
    assert math.isclose(kin.energy, math.cosh(0.5), rel_tol=1e-15)
    assert math.isclose(kin.energy, 1.1276259652063807, rel_tol=1e-15)


def test_bound_energy_fields():
    be = BoundEnergy(2.0, 0.6)
    assert math.isclose(be.energy, 2.0 * math.cos(0.6), rel_tol=1e-15)
    assert math.isclose(be.two_body_energy, 4.0 * math.cos(0.6), rel_tol=1e-15)


def test_domain_guards():
    with pytest.raises(DomainError):
        Kinematics(-1.0, 0.5)
    with pytest.raises(DomainError):
        Kinematics(1.0, -0.1)
    with pytest.raises(DomainError):
        BoundEnergy(1.0, 0.0)
    with pytest.raises(DomainError):
        BoundEnergy(1.0, math.pi / 2)
    with pytest.raises(DomainError):
        rapidity_from_momentum(-0.1, 1.0)
    with pytest.raises(DomainError):
        rapidity_from_momentum(0.5, 0.0)


def test_k_factor_values():
    kin = Kinematics(1.5, 0.8)
    two_body = 1.5 * math.sinh(1.6)
    per_particle = 2.0 * 1.5 * math.sinh(0.8)
    assert math.isclose(k_factor(1, kin), two_body, rel_tol=1e-15)
    assert math.isclose(k_factor(2, kin), two_body, rel_tol=1e-15)
    assert math.isclose(k_factor(3, kin), per_particle, rel_tol=1e-15)
    assert math.isclose(k_factor(4, kin), per_particle, rel_tol=1e-15)


def test_k_factor_bound_values():
    be = BoundEnergy(1.5, 0.8)
    assert math.isclose(k_factor_bound(1, be), 1.5 * math.sin(1.6), rel_tol=1e-15)
    assert math.isclose(k_factor_bound(2, be), 1.5 * math.sin(1.6), rel_tol=1e-15)
    assert math.isclose(k_factor_bound(3, be), 3.0 * math.sin(0.8), rel_tol=1e-15)
    assert math.isclose(k_factor_bound(4, be), 3.0 * math.sin(0.8), rel_tol=1e-15)


def test_k_factor_threshold():
    with pytest.raises(ThresholdError):
        k_factor(1, Kinematics(1.0, 0.0))


def test_k_factor_overflow_is_a_domain_error():
    # sinh(2 chi) overflows for variants 1, 2 at chi = 400; sinh(chi) does not
    for j in (1, 2):
        with pytest.raises(DomainError, match="too large"):
            k_factor(j, Kinematics(1.0, 400.0))
    assert math.isfinite(k_factor(3, Kinematics(1.0, 400.0)))
    # a finite sinh times a huge mass overflows too
    with pytest.raises(DomainError):
        k_factor(4, Kinematics(1e300, 20.0))


def test_variant_enum():
    assert tuple(ALL_VARIANTS) == (1, 2, 3, 4)
    assert EquationVariant(3) is EquationVariant.MLT
    with pytest.raises(ValueError):
        EquationVariant(5)


_KIN = Kinematics(1.0, 0.7)
_BE = BoundEnergy(1.0, 0.7)
_ONE = scattering.ShellPotential.single(2.0, 1.0)
_TWO = scattering.ShellPotential.double(2.0, 1.0, -3.0, 2.0)
# every public function that takes the variant j, with valid other arguments
_TAKES_J = {
    "k_factor": lambda j: k_factor(j, _KIN),
    "k_factor_bound": lambda j: k_factor_bound(j, _BE),
    "green_line": lambda j: greens.green_line(j, _KIN, 0.5),
    "green_partial": lambda j: greens.green_partial(j, _KIN, 1.0, 0.5),
    "green_partial_real": lambda j: greens.green_partial_real(j, 1.0, 0.7, 1.0, 0.5),
    "green_line_bound": lambda j: greens.green_line_bound(j, _BE, 0.5),
    "green_partial_bound": lambda j: greens.green_partial_bound(j, _BE, 1.0, 0.5),
    "green_partial_bound_array":
        lambda j: greens.green_partial_bound_array(j, 1.0, [0.3, 0.7], 1.0, 0.5),
    "green_spectral_oracle": lambda j: greens.green_spectral_oracle(j, _BE, 1.0, 0.5),
    "delta_system": lambda j: scattering.delta_system(j, _KIN, _ONE),
    "amplitude": lambda j: scattering.amplitude(j, _KIN, _ONE),
    "amplitude_explicit": lambda j: scattering.amplitude_explicit(j, _KIN, _ONE),
    "wavefunction": lambda j: scattering.wavefunction(j, _KIN, _ONE, 0.5),
    "scatter_point": lambda j: scattering.scatter_point(j, _KIN, _ONE),
    "sweep": lambda j: scattering.sweep(j, 1.0, _ONE, [0.5, 0.7]),
    "zero_condition": lambda j: scattering.zero_condition(j, _KIN, _TWO),
    "scan_zero_locus": lambda j: scattering.scan_zero_locus(
        j, 1.0, 1.0, 2.0, -3.0, (1.2, 3.0), (0.2, 3.0), grid=(16, 16)),
    "v0_of_w": lambda j: boundstates.v0_of_w(j, _BE, 1.0),
    "v0_of_w_explicit": lambda j: boundstates.v0_of_w_explicit(j, _BE, 1.0),
    "det_bound": lambda j: boundstates.det_bound(j, _BE, _TWO),
    "v1_pm_of_w": lambda j: boundstates.v1_pm_of_w(j, _BE, 1.0, 2.0, 0.5),
    "bound_wavefunction": lambda j: boundstates.bound_wavefunction(j, 1.0, 0.7, _ONE),
    "level_roots": lambda j: boundstates.level_roots(j, 1.0, _ONE, n_scan=50),
    "solve_levels": lambda j: boundstates.solve_levels(j, 1.0, _ONE, n_scan=50),
    "sample_v0_curve": lambda j: boundstates.sample_v0_curve(j, 1.0, 1.0, n=8),
    "sample_v2_curve": lambda j: boundstates.sample_v2_curve(j, 1.0, 1.0, 2.0, -1.0, n=8),
    "sample_det_curve": lambda j: boundstates.sample_det_curve(j, 1.0, _TWO, n=8),
    "sample_v1pm_curve":
        lambda j: boundstates.sample_v1pm_curve(j, 1.0, 1.0, 2.0, 0.5, n=8),
    "limit_convergence": lambda j: nonrel.limit_convergence(
        "gf", j, (10.0, 100.0, 1000.0), q=0.6, r=1.2, rp=0.4),
}


@pytest.mark.parametrize("bad_j", [0, 5, 2.5, "1"])
@pytest.mark.parametrize("name", sorted(_TAKES_J))
def test_invalid_variant_is_a_domain_error(name, bad_j):
    with pytest.raises(DomainError, match="equation variant must be 1, 2, 3 or 4"):
        _TAKES_J[name](bad_j)
