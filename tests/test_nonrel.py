"""Schroedinger reference solutions and the large-mass limit ladder."""

import cmath
import math

import numpy as np
import pytest

from qpshell.errors import DomainError, PoleError, ThresholdError, UnsupportedFormError
from qpshell.nonrel import (
    ConvergenceReport,
    limit_convergence,
    nr_amplitude,
    nr_amplitude_explicit,
    nr_det_bound,
    nr_green,
    nr_green_bound,
    nr_v0_of_kappa,
    nr_wavefunction,
)
from qpshell.kinematics import Kinematics
from qpshell.scattering import ShellPotential, amplitude


def _fd_second(f, r, h=1e-4):
    return (f(r + h) - 2.0 * f(r) + f(r - h)) / (h * h)


def test_nr_green_solves_free_equation():
    # G'' + q^2 G = 0 away from the source point, both sides of it
    q, rp = 1.3, 2.0
    for r in (0.7, 1.5, 2.6, 4.0):
        g = lambda x: nr_green(q, x, rp)
        assert abs(_fd_second(g, r) + q * q * g(r)) < 1e-5
    assert nr_green(q, 0.0, rp) == 0.0


def test_nr_green_derivative_jump():
    # the radial derivative jumps by exactly 1 across r = r'
    q, rp, h = 0.9, 1.7, 1e-7
    right = (nr_green(q, rp + 2 * h, rp) - nr_green(q, rp + h, rp)) / h
    left = (nr_green(q, rp - h, rp) - nr_green(q, rp - 2 * h, rp)) / h
    assert abs((right - left) - 1.0) < 1e-5


def test_nr_green_bound_solves_decaying_equation():
    kappa, rp = 0.8, 1.5
    for r in (0.6, 2.2, 3.5):
        g = lambda x: nr_green_bound(kappa, x, rp)
        assert abs(_fd_second(g, r) - kappa * kappa * g(r)) < 1e-5
    right = (nr_green_bound(kappa, rp + 2e-7, rp) - nr_green_bound(kappa, rp + 1e-7, rp)) / 1e-7
    left = (nr_green_bound(kappa, rp - 1e-7, rp) - nr_green_bound(kappa, rp - 2e-7, rp)) / 1e-7
    assert abs((right - left) - 1.0) < 1e-5
    assert abs(nr_green_bound(kappa, 20.0, rp)) < abs(nr_green_bound(kappa, 5.0, rp))


def test_nr_amplitude_routes_agree():
    rng = np.random.default_rng(30)
    for _ in range(60):
        q = float(rng.uniform(0.05, 4.0))
        if rng.uniform() < 0.5:
            pot = ShellPotential.single(float(rng.uniform(-5, 5)), float(rng.uniform(0.1, 6.0)))
        else:
            a1 = float(rng.uniform(0.1, 3.0))
            pot = ShellPotential.double(
                float(rng.uniform(-4, 4)), a1,
                float(rng.uniform(-4, 4)), a1 + float(rng.uniform(0.2, 3.0)),
            )
        f_gen = nr_amplitude(q, pot)
        f_exp = nr_amplitude_explicit(q, pot)
        assert abs(f_gen - f_exp) <= 1e-12 * max(abs(f_gen), 1e-300)


def test_nr_explicit_refuses_three_shells():
    pot = ShellPotential(((1.0, 3.0), (-1.0, 4.0), (0.5, 5.5)))
    with pytest.raises(UnsupportedFormError):
        nr_amplitude_explicit(0.7, pot)


def test_nr_amplitude_outer_off_reduces_to_single():
    q = 0.7
    double = ShellPotential.double(2.0, 1.5, 0.0, 3.0)
    single = ShellPotential.single(2.0, 1.5)
    assert nr_amplitude(q, double) == nr_amplitude(q, single)


def test_nr_unitarity_and_zeros():
    pot = ShellPotential.single(2.0, 5.0)
    for q in (0.3, 0.9, 2.2):
        f = nr_amplitude(q, pot)
        assert abs(f.imag - q * abs(f) ** 2) < 1e-14 * (1.0 + abs(f) ** 2)
    for n in (1, 2, 3):
        assert abs(nr_amplitude(math.pi * n / 5.0, pot)) < 1e-12


def test_nr_pole_raises():
    # sin(q a) = 0 makes the denominator real; V0 = 1/G(a, a).real zeroes it
    q, a = math.pi / 2.0, 2.0
    v0c = 1.0 / nr_green(q, a, a).real
    with pytest.raises(PoleError):
        nr_amplitude(q, ShellPotential.single(v0c, a))
    nr_amplitude(q, ShellPotential.single(1.01 * v0c, a))


def test_nr_wavefunction_contract():
    q = 0.8
    pot = ShellPotential.double(1.0, 3.0, -1.0, 4.0)
    assert nr_wavefunction(q, pot, 0.0) == 0.0
    f = nr_amplitude(q, pot)
    r = 9.0
    expected = math.sin(q * r) + q * f * cmath.exp(1j * q * r)
    assert abs(nr_wavefunction(q, pot, r) - expected) < 1e-13
    # derivative jump at each shell equals V psi(a)
    h = 1e-7
    for v, a in pot.shells:
        right = (nr_wavefunction(q, pot, a + 2 * h) - nr_wavefunction(q, pot, a + h)) / h
        left = (nr_wavefunction(q, pot, a - h) - nr_wavefunction(q, pot, a - 2 * h)) / h
        assert abs((right - left) - v * nr_wavefunction(q, pot, a)) < 1e-5


def transfer_amplitude(q, pot):
    """Schroedinger amplitude by integrating across the shells.

    From psi(0) = 0, psi'(0) = 1, psi = alpha sin(q r) + beta cos(q r)
    between shells, and each shell adds V_k psi(a_k) to psi'.  Outside,
    psi is proportional to sin(q r + delta) with tan(delta) = beta / alpha,
    and f = exp(i delta) sin(delta) / q.
    """
    alpha, beta = 1.0 / q, 0.0
    for v, a in pot.shells:
        s, c = math.sin(q * a), math.cos(q * a)
        kick = v * (alpha * s + beta * c) / q
        alpha, beta = alpha + kick * c, beta - kick * s
    return complex(alpha * beta, beta * beta) / ((alpha * alpha + beta * beta) * q)


def test_nr_amplitude_matches_transfer_matrix():
    # compared as q f = exp(i delta) sin(delta), the S-matrix scale: near a
    # transparency zero |f| is a small difference of O(1/q) terms, and a
    # relative error in f says nothing there
    rng = np.random.default_rng(32)
    for _ in range(300):
        q = float(rng.uniform(0.05, 4.0))
        n = int(rng.integers(1, 5))
        radii = np.sort(rng.uniform(0.1, 6.0, n)).tolist()
        pot = ShellPotential(tuple(zip(rng.uniform(-4, 4, n).tolist(), radii)))
        assert abs(q * (nr_amplitude(q, pot) - transfer_amplitude(q, pot))) <= 1e-12


def test_three_shell_amplitude_static_limit():
    pot = ShellPotential(((1.5, 1.0), (-2.0, 2.5), (0.8, 4.0)))
    q = 0.6
    f_ref = transfer_amplitude(q, pot)
    for j in (1, 2, 3, 4):
        devs = [abs(amplitude(j, Kinematics(m, math.asinh(q / m)), pot) - f_ref) / abs(f_ref)
                for m in (10.0, 100.0, 1000.0)]
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 1e-2


def test_nr_v0_of_kappa_forms():
    kappa, a = 0.5, 1.0
    assert math.isclose(
        nr_v0_of_kappa(kappa, a),
        -kappa * math.exp(kappa * a) / math.sinh(kappa * a),
        rel_tol=1e-14,
    )
    # weak-binding limit -1/a, deep limit -2 kappa
    assert math.isclose(nr_v0_of_kappa(1e-8, 2.0), -0.5, rel_tol=1e-6)
    assert math.isclose(nr_v0_of_kappa(40.0, 2.0), -80.0, rel_tol=1e-12)
    # it is a quantization point of the bound kernel
    v0 = nr_v0_of_kappa(kappa, a)
    assert abs(nr_det_bound(kappa, ShellPotential.single(v0, a))) < 1e-14


def test_nr_det_bound_reduction():
    kappa = 0.6
    v0 = nr_v0_of_kappa(kappa, 1.5)
    pot2 = ShellPotential.double(v0, 1.5, 0.0, 3.0)
    assert abs(nr_det_bound(kappa, pot2)) < 1e-14


def test_nr_domain_guards():
    with pytest.raises(ThresholdError):
        nr_green(0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        nr_green(0.5, -1.0, 1.0)
    with pytest.raises(DomainError):
        nr_v0_of_kappa(-0.5, 1.0)
    with pytest.raises(DomainError):
        nr_det_bound(0.0, ShellPotential.single(-2.0, 1.0))


def test_nr_kernels_refuse_a_non_finite_q_r():
    # q a = 1e308 * 5 overflows; sin(q a) once raised a raw ValueError
    pot = ShellPotential.single(2.0, 5.0)
    for call in (lambda: nr_green(1e308, 1.0, 5.0), lambda: nr_amplitude(1e308, pot),
                 lambda: nr_amplitude_explicit(1e308, pot),
                 lambda: nr_wavefunction(1e308, pot, 0.5),
                 lambda: nr_wavefunction(1e300, ShellPotential.single(2.0, 0.5), 1e9)):
        with pytest.raises(DomainError, match="q r is not finite"):
            call()


def test_limit_convergence_amplitude():
    pot = ShellPotential.single(2.0, 5.0)
    for j in (1, 2, 3, 4):
        rep = limit_convergence("amplitude", j, (10.0, 100.0, 1000.0), q=0.6, pot=pot)
        assert rep.monotone
        assert rep.final_deviation < 1e-2
        assert rep.masses == (10.0, 100.0, 1000.0)


def test_limit_convergence_gf_and_quantization():
    for j in (1, 2, 3, 4):
        rep = limit_convergence("gf", j, (10.0, 100.0, 1000.0), q=0.5, r=1.2, rp=0.4)
        assert rep.monotone and rep.final_deviation < 1e-2
        rep = limit_convergence("quantization", j, (10.0, 100.0, 1000.0), kappa=0.5, a=1.0)
        assert rep.monotone and rep.final_deviation < 1e-2


def test_limit_convergence_guards():
    pot = ShellPotential.single(2.0, 5.0)
    with pytest.raises(DomainError):
        limit_convergence("amplitude", 1, (10.0, 100.0), q=0.6, pot=pot)
    with pytest.raises(DomainError):
        limit_convergence("amplitude", 1, (10.0, 10.0, 100.0), q=0.6, pot=pot)
    with pytest.raises(DomainError):
        limit_convergence("quantization", 1, (0.4, 10.0, 100.0), kappa=0.5, a=1.0)
    with pytest.raises(DomainError):
        limit_convergence("sigma", 1, (10.0, 100.0, 1000.0), q=0.6, pot=pot)


def test_convergence_report_monotone_property():
    rep = ConvergenceReport("amplitude", 1, (1.0, 2.0, 3.0), (0.3, 0.2, 0.1))
    assert rep.monotone and rep.final_deviation == 0.1
    flat = ConvergenceReport("amplitude", 1, (1.0, 2.0, 3.0), (0.3, 0.3, 0.1))
    assert not flat.monotone
