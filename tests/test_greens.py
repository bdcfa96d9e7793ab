"""Line and partial kernels against an independent complex-arithmetic route.

The reference helper below evaluates the undecomposed kernel formula with
cmath at arbitrary complex rapidity.  It has no overflow guards and no small
|x| series, so it is only trusted at moderate arguments; there it provides an
independent path for both the real branch (chi real) and the bound branch
(chi = i w), including the analytic continuation the closed bound forms are
derived from.
"""

import cmath
import math

import numpy as np
import pytest

from qpshell.errors import DomainError, ThresholdError, UnsupportedBranchError
from qpshell.greens import (
    green_line,
    green_line_bound,
    green_partial,
    green_partial_bound,
    green_partial_real,
    green_spectral_oracle,
)
from qpshell.kinematics import ALL_VARIANTS, BoundEnergy, Kinematics, k_factor


def reference_line(j: int, m: float, chi: complex, x: float) -> complex:
    """Undecomposed line kernel at complex rapidity; moderate x only."""
    if j in (1, 2):
        kq = m * cmath.sinh(2.0 * chi)
    else:
        kq = 2.0 * m * cmath.sinh(chi)
    if x == 0.0:
        if j == 1:
            return (2.0 * chi / math.pi - 1j) / kq
        if j == 2:
            return 1.0 / (4.0 * m * cmath.cosh(chi)) + (chi / math.pi - 1j) / kq
        if j == 3:
            return -1j / kq
        return (chi / math.pi - 1j) / kq
    px = math.pi * m * x
    if j == 1:
        c = 1.0 / math.tanh(px / 2.0)
    elif j in (2, 4):
        c = 1.0 / math.tanh(px)
    else:
        c = math.tanh(px / 2.0)
    g = (c * cmath.sin(chi * m * x) - 1j * cmath.cos(chi * m * x)) / kq
    if j == 2:
        g += (1.0 / math.cosh(px / 2.0)) / (4.0 * m * cmath.cosh(chi))
    return g


def reference_partial(j: int, m: float, chi: complex, r: float, rp: float) -> complex:
    return reference_line(j, m, chi, r - rp) - reference_line(j, m, chi, r + rp)


def test_real_branch_matches_reference():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(200):
        j = int(rng.integers(1, 5))
        m = float(rng.uniform(0.3, 2.0))
        chi = float(rng.uniform(0.05, 3.0))
        x = float(rng.uniform(0.05, 4.0))
        got = green_line(j, Kinematics(m, chi), x)
        ref = reference_line(j, m, chi, x)
        worst = max(worst, abs(got - ref) / abs(ref))
    assert worst < 1e-13


def test_bound_branch_is_analytic_continuation():
    # the reference cancels two e^{+wmx} terms into an e^{-wmx} result, so it
    # loses roughly e^{2wmx} ulps itself: keep w m x modest where it is exact
    rng = np.random.default_rng(4)
    worst = 0.0
    n = 0
    while n < 200:
        j = int(rng.integers(1, 5))
        m = float(rng.uniform(0.3, 2.0))
        w = float(rng.uniform(0.05, math.pi / 2 - 0.05))
        x = float(rng.uniform(0.05, 4.0))
        if w * m * x > 1.5:
            continue
        got = green_line_bound(j, BoundEnergy(m, w), x)
        ref = reference_line(j, m, 1j * w, x)
        assert abs(ref.imag) < 1e-12 * abs(ref)
        worst = max(worst, abs(got - ref.real) / abs(ref))
        n += 1
    assert worst < 1e-12


def test_zero_separation_limits():
    kin = Kinematics(1.0, 0.7)
    for j in ALL_VARIANTS:
        got = green_line(j, kin, 0.0)
        ref = reference_line(j, 1.0, 0.7, 0.0)
        assert abs(got - ref) < 1e-15
    # small-x series joins the x = 0 limit continuously
    for j in ALL_VARIANTS:
        step = abs(green_line(j, kin, 1e-12) - green_line(j, kin, 0.0))
        assert step < 1e-10


def test_series_branch_consistent_with_direct():
    # the series kicks in below m r = 1e-4; compare just above and below
    kin = Kinematics(1.0, 1.3)
    for j in ALL_VARIANTS:
        lo = green_line(j, kin, 0.99e-4)
        hi = green_line(j, kin, 1.01e-4)
        mid = 0.5 * (lo + hi)
        ref = reference_line(j, 1.0, 1.3, 1.0e-4)
        assert abs(mid - ref) < 1e-11 * abs(ref) + 1e-15


def test_no_overflow_at_huge_separation():
    # coth/tanh saturate: K G -> -i e^{i chi m x} (variant-2 extra term dies)
    kin = Kinematics(1.0, 0.8)
    x = 1.0e4
    for j in ALL_VARIANTS:
        g = green_line(j, kin, x)
        assert cmath.isfinite(g)
        kq = k_factor(j, kin)
        target = -1j * cmath.exp(1j * kin.chi * kin.m * x)
        assert abs(g * kq - target) < 1e-10


def test_bound_kernel_no_overflow():
    be = BoundEnergy(1.0, 0.3)
    g = green_line_bound(1, be, 1.0e4)
    assert math.isfinite(g)
    assert g != 0.0 or abs(g) == 0.0  # underflow to zero acceptable, not nan


def test_partial_kernel_symmetry_and_origin():
    kin = Kinematics(1.2, 0.9)
    be = BoundEnergy(1.2, 0.5)
    for j in ALL_VARIANTS:
        assert green_partial(j, kin, 1.0, 2.3) == green_partial(j, kin, 2.3, 1.0)
        assert green_partial(j, kin, 1.7, 0.0) == 0.0
        assert green_partial_bound(j, be, 1.7, 0.0) == 0.0
        a = green_partial_bound(j, be, 0.8, 1.9)
        b = green_partial_bound(j, be, 1.9, 0.8)
        assert a == b


def test_partial_imaginary_part_identity():
    rng = np.random.default_rng(6)
    for _ in range(100):
        j = int(rng.integers(1, 5))
        m = float(rng.uniform(0.2, 3.0))
        chi = float(rng.uniform(0.05, 4.0))
        a = float(rng.uniform(0.05, 6.0))
        b = float(rng.uniform(0.05, 6.0))
        kin = Kinematics(m, chi)
        lhs = green_partial(j, kin, a, b).imag
        rhs = -2.0 * math.sin(chi * m * a) * math.sin(chi * m * b) / k_factor(j, kin)
        assert abs(lhs - rhs) < 1e-12


def test_bound_diagonal_negative():
    for j in ALL_VARIANTS:
        for w in (0.1, 0.7, 1.4):
            for r in (0.3, 1.0, 2.5):
                assert green_partial_bound(j, BoundEnergy(1.0, w), r, r) < 0.0


def test_spectral_oracle_agrees_off_diagonal():
    be = BoundEnergy(1.0, 0.7)
    for j in ALL_VARIANTS:
        closed = green_partial_bound(j, be, 1.3, 0.4)
        res = green_spectral_oracle(j, be, 1.3, 0.4, tol=1e-9)
        assert abs(res.value - closed) < 1e-7


def test_spectral_oracle_nonunit_mass():
    be = BoundEnergy(0.5, 0.9)
    closed = green_partial_bound(2, be, 2.0, 1.1)
    res = green_spectral_oracle(2, be, 2.0, 1.1, tol=1e-9)
    assert abs(res.value - closed) < 1e-7


def test_spectral_oracle_guards():
    with pytest.raises(UnsupportedBranchError):
        green_spectral_oracle(1, Kinematics(1.0, 0.5), 1.0, 1.0)
    with pytest.raises(DomainError):
        green_spectral_oracle(1, BoundEnergy(1.0, 0.5), 1.0, 1.0, tol=1e-12)


def test_threshold_rejected():
    with pytest.raises(ThresholdError):
        green_line(1, Kinematics(1.0, 0.0), 1.0)


def test_negative_separation_even():
    kin = Kinematics(1.0, 1.1)
    for j in ALL_VARIANTS:
        assert green_line(j, kin, -0.7) == green_line(j, kin, 0.7)


def test_array_kernel_matches_scalar():
    # r = r', the |m (r - r')| < 1e-4 series branch, moderate and large r;
    # chi is broadcast against r.  Tolerance: a few ulp of the magnitudes of
    # the terms summed.  For j = 2 each line kernel adds a sech term of at
    # most 1/(4 m cosh chi) that may cancel the ratio term, so twice that
    # bound per kernel covers both
    m = 1.3
    chi = np.array([0.05, 0.7, 2.5, 9.0])
    pairs = [(1.0, 1.0), (2.0, 2.0 + 3e-5), (0.5, 2.3), (40.0, 41.5), (300.0, 0.2), (1e4, 1e4)]
    r = np.array([p[0] for p in pairs])[:, None]
    rp = np.array([p[1] for p in pairs])[:, None]
    eps = np.finfo(float).eps
    for j in ALL_VARIANTS:
        got = green_partial_real(j, m, chi, r, rp)
        assert got.shape == (len(pairs), len(chi))
        for (a, b), row in zip(pairs, got):
            for c, value in zip(chi.tolist(), row.tolist()):
                kin = Kinematics(m, c)
                scale = abs(green_line(j, kin, a - b).real) + abs(green_line(j, kin, a + b).real)
                if j == 2:
                    scale += 1.0 / (m * math.cosh(c))
                assert abs(value - green_partial(j, kin, a, b).real) <= 4 * eps * scale


def test_array_kernel_guards():
    with pytest.raises(ThresholdError):
        green_partial_real(1, 1.0, np.array([0.5, 0.0]), 1.0, 2.0)
    # K_1 = m sinh(2 chi) overflows near chi = 355 at m = 1, K_3 near 710
    with pytest.raises(DomainError):
        green_partial_real(1, 1.0, np.array([1.0, 400.0]), 1.0, 2.0)
    with pytest.raises(DomainError):
        green_partial_real(3, 1.0, 800.0, 1.0, 2.0)
    assert np.isfinite(green_partial_real(3, 1.0, 400.0, 1.0, 2.0))
