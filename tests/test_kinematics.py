"""Rapidity kinematics: round trips, K-factors, domain guards."""

import math

import pytest

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
