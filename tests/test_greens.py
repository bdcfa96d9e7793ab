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
import sys
import warnings

import numpy as np
import pytest

from qpshell.boundstates import _EXP_SWITCH, _hyperbolic_ratio
from qpshell.errors import DomainError, ThresholdError, UnsupportedBranchError
from qpshell.greens import (
    _TINY,
    _bound_factors,
    _line_bound_array,
    _line_re_array,
    _real_factors,
    _sech,
    green_line,
    green_line_bound,
    green_partial,
    green_partial_array,
    green_partial_bound,
    green_partial_bound_array,
    green_spectral_oracle,
)
from qpshell.kinematics import (
    ALL_VARIANTS,
    BOUND_W_HI,
    BOUND_W_LO,
    BoundEnergy,
    Kinematics,
    _variant,
    _Variant,
    k_factor,
    k_factor_bound,
)


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
    # the closed form joins the x = 0 limit continuously
    for j in ALL_VARIANTS:
        step = abs(green_line(j, kin, 1e-12) - green_line(j, kin, 0.0))
        assert step < 1e-10


def test_series_branch_consistent_with_direct():
    # the one closed form has no switch near m r = 0: at m r = 0.99e-4 and
    # 1.01e-4, where an earlier version changed to a Taylor series, it is
    # smooth and agrees with the undecomposed reference
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
        images = (green_line(j, kin, a - b) - green_line(j, kin, a + b)).imag
        assert abs(lhs - rhs) < 1e-12 and abs(lhs - images) < 1e-12


@pytest.mark.parametrize("chi", [1e-8, 1e-5])
def test_partial_imaginary_part_matches_mpmath_at_small_chi(chi):
    # the cosine images cos(chi m (r - r')) - cos(chi m (r + r')) cancel as
    # chi -> 0; their difference was 6.4 % off at chi = 1e-8
    mp = pytest.importorskip("mpmath")
    got = green_partial(1, Kinematics(1.0, chi), 1.0, 0.7).imag
    with mp.workdps(50):
        c, r, rp = mp.mpf(chi), mp.mpf(1.0), mp.mpf(0.7)
        ref = float((mp.cos(c * (r + rp)) - mp.cos(c * (r - rp))) / mp.sinh(2 * c))
    assert abs(got - ref) <= 4 * np.finfo(float).eps * abs(ref)


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


def _line_re(v: _Variant, chi: float, kt: float, x: float) -> float:
    """m Re G_j(chi, r) at x = m r, with kt = K_j / m given.

    c_j(x) sin(chi x) / kt (plus the sech term for j = 2), where c_1 =
    coth(pi x / 2), c_2 = c_4 = coth(pi x) and c_3 = tanh(pi x / 2): with
    a = rate x and b = chi x, tanh(a) sin(b) for j = 3 and sin(b) / tanh(a)
    otherwise.  The quotient takes its x -> 0 limit chi / rate where a or b
    is below _TINY, where it is 0/0 or subnormal.
    """
    a = v.rate * x
    b = chi * x
    if v.tanh:
        g = math.tanh(a) * math.sin(b)
    elif abs(a) < _TINY or abs(b) < _TINY:
        g = chi / v.rate
    else:
        g = math.sin(b) / math.tanh(a)
    g /= kt
    if v.sech:
        g += _sech(math.pi * x / 2) / (4.0 * math.cosh(chi))
    return g


def test_array_kernel_matches_scalar():
    # against the scalar math-module body the library had before its real
    # branch kept one array body (_line_re above, as it was), so the array
    # body is not checked against itself.  r = r' (the x = 0 limit),
    # |m (r - r')| = 3.9e-5, moderate and large r; chi is broadcast against
    # r.  Tolerance: a few ulp of the magnitudes of the terms summed.  For
    # j = 2 each line kernel adds a sech term of at most 1/(4 m cosh chi)
    # that may cancel the ratio term, so twice that bound per kernel covers
    # both.  Then the same at 250 random points per j, drawn as in
    # test_scalar_kernels_are_0d_calls_of_the_array_body
    eps = np.finfo(float).eps

    def check(j, m, chi, r, rp, got):
        v = _variant(j)
        for c, a, b, value in zip(chi, r, rp, got):
            kt = k_factor(j, Kinematics(m, c)) / m
            near = _line_re(v, c, kt, m * (a - b)) / m
            far = _line_re(v, c, kt, m * (a + b)) / m
            scale = abs(near) + abs(far)
            if j == 2:
                scale += 1.0 / (m * math.cosh(c))
            assert abs(value - (near - far)) <= 4 * eps * scale

    m = 1.3
    chi = np.array([0.05, 0.7, 2.5, 9.0])
    pairs = [(1.0, 1.0), (2.0, 2.0 + 3e-5), (0.5, 2.3), (40.0, 41.5), (300.0, 0.2), (1e4, 1e4)]
    r = np.array([p[0] for p in pairs])[:, None]
    rp = np.array([p[1] for p in pairs])[:, None]
    for j in ALL_VARIANTS:
        got = green_partial_array(j, m, chi, r, rp).real
        assert got.shape == (len(pairs), len(chi))
        grid = np.broadcast_arrays(chi, r, rp, got)
        check(j, m, *(column.ravel().tolist() for column in grid))
    rng = np.random.default_rng(259)
    n = 250
    for j in ALL_VARIANTS:
        m = float(rng.uniform(0.3, 2.0))
        chi = rng.uniform(0.01, 20.0, n)
        r = rng.uniform(0.0, 30.0, n)
        rp = rng.uniform(0.0, 30.0, n)
        rp[:40] = r[:40]
        r[40:80] = rng.uniform(0.0, _TINY, 40)
        rp[40:80] = r[40:80] / 2
        got = green_partial_array(j, m, chi, r, rp).real
        check(j, m, chi.tolist(), r.tolist(), rp.tolist(), got.tolist())


def _mp_line(j: int, m: float, chi: float, x: float, bound: bool):
    """The line kernel to 50 digits, and the sum of its terms' magnitudes.

    Re G_j(chi, r) at x = m r, or G_j(i w, r) with chi = w when bound, from
    the plain hyperbolic functions, with no exponential form.  pi is the
    double the library uses, so the check measures how the closed forms are
    evaluated, not the rounding of pi, which moves alpha = pi/2 - w by up to
    6e-17 (6e-8 of alpha at BOUND_W_HI).
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        pi = mp.mpf(math.pi)
        m, chi, x = mp.mpf(m), mp.mpf(chi), abs(mp.mpf(x))
        rate = pi / 2 if j in (1, 3) else pi
        if bound:
            alpha = rate - chi
            if j == 3:
                ratio = mp.cosh(alpha * x) / mp.cosh(rate * x)
            else:
                ratio = alpha / rate if x == 0 else mp.sinh(alpha * x) / mp.sinh(rate * x)
            kb = m * mp.sin(2 * chi) if j in (1, 2) else 2 * m * mp.sin(chi)
            term = -ratio / kb
            sech = mp.sech(pi * x / 2) / (4 * m * mp.cos(chi))
        else:
            if j == 3:
                c_sin = mp.tanh(rate * x) * mp.sin(chi * x)
            else:
                c_sin = chi / rate if x == 0 else mp.sin(chi * x) / mp.tanh(rate * x)
            kq = m * mp.sinh(2 * chi) if j in (1, 2) else 2 * m * mp.sinh(chi)
            term = c_sin / kq
            sech = mp.sech(pi * x / 2) / (4 * m * mp.cosh(chi))
        if j != 2:
            sech = mp.mpf(0)
        return term + sech, abs(term) + abs(sech)


def test_real_kernels_match_mpmath_near_the_origin():
    # both bodies at the x = 0 limit and for |x| = m r from 1e-300 to 1e-3,
    # where chi x or rate x is subnormal for the smallest x.  Gate: 4 ulp of
    # the terms summed, plus the smallest normal float over K_j: a value
    # below the normal range keeps only absolute digits, and dividing by
    # K_j magnifies them (j = 3 only, whose tanh(a) sin(b) underflows)
    eps = np.finfo(float).eps
    xs = np.logspace(-300, -3, 45)
    for j in ALL_VARIANTS:
        for chi in np.logspace(-8, math.log10(20.0), 9).tolist():
            kin = Kinematics(1.0, chi)
            floor = sys.float_info.min / k_factor(j, kin)
            ref0, scale0 = _mp_line(j, 1.0, chi, 0.0, bound=False)
            assert abs(green_line(j, kin, 0.0).real - ref0) <= 4 * eps * scale0 + floor
            # the array body at r = r' = x / 2 is line(0) - line(x)
            got = green_partial_array(j, 1.0, chi, xs / 2, xs / 2).real
            for x, g in zip(xs.tolist(), got.tolist()):
                ref, scale = _mp_line(j, 1.0, chi, x, bound=False)
                for sign in (1.0, -1.0):
                    line = green_line(j, kin, sign * x).real
                    assert abs(line - ref) <= 4 * eps * scale + floor
                assert abs(g - (ref0 - ref)) <= 4 * eps * (scale0 + scale) + 2 * floor


def test_bound_kernels_match_mpmath():
    # both bodies at x = 0, for beta x from 25 to 35 and at x = 600, from
    # w = BOUND_W_LO to BOUND_W_HI.  Gate: 4 ulp of the terms summed (at
    # BOUND_W_HI the two j = 2 terms are O(1 / cos w) and cancel), times
    # 1 + w x: e^{-w x} is formed from the rounded product w x, and its
    # relative condition number is w x.  Values below the normal range keep
    # only absolute digits
    eps = np.finfo(float).eps
    tiny = sys.float_info.min
    for j in ALL_VARIANTS:
        beta = math.pi / 2 if j in (1, 3) else math.pi
        xs = np.append(np.linspace(25.0, 35.0, 41) / beta, [0.0, 600.0])
        for w in (BOUND_W_LO, 0.05, 0.7, 1.5, BOUND_W_HI):
            ref0, scale0 = _mp_line(j, 1.0, w, 0.0, bound=True)
            # the array body at r = r' = x / 2 is line(0) - line(x)
            got = green_partial_bound_array(j, 1.0, w, xs / 2, xs / 2)
            for x, g in zip(xs.tolist(), got.tolist()):
                ref, scale = _mp_line(j, 1.0, w, x, bound=True)
                line = green_line_bound(j, BoundEnergy(1.0, w), x)
                assert abs(line - ref) <= 4 * eps * (1 + w * x) * scale + tiny
                assert abs(g - (ref0 - ref)) <= 4 * eps * (1 + w * x) * (scale0 + scale) + tiny


def test_array_kernel_guards():
    with pytest.raises(ThresholdError):
        green_partial_array(1, 1.0, np.array([0.5, 0.0]), 1.0, 2.0)
    # K_1 = m sinh(2 chi) overflows near chi = 355 at m = 1, K_3 near 710
    with pytest.raises(DomainError):
        green_partial_array(1, 1.0, np.array([1.0, 400.0]), 1.0, 2.0)
    with pytest.raises(DomainError):
        green_partial_array(3, 1.0, 800.0, 1.0, 2.0)
    assert np.isfinite(green_partial_array(3, 1.0, 400.0, 1.0, 2.0))


def test_array_kernel_validates_the_mass():
    # a negative mass once gave a value (0.404 at j = 1, chi = 0.5, r = 1,
    # r' = 2), and m = 0 or NaN a misleading "chi m r is not finite"
    for m in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="mass must be finite and positive"):
            green_partial_array(1, m, 0.5, 1.0, 2.0)


def test_scalar_kernels_are_0d_calls_of_the_array_body():
    # green_partial and green_line give the vector results bit for bit, at
    # random points, at r = r' (the x = 0 limit) and where m r and
    # m (r -+ r') are below _TINY
    rng = np.random.default_rng(24)
    n = 250
    for j in ALL_VARIANTS:
        v = _variant(j)
        m = float(rng.uniform(0.3, 2.0))
        chi = rng.uniform(0.01, 20.0, n)
        r = rng.uniform(0.0, 30.0, n)
        rp = rng.uniform(0.0, 30.0, n)
        rp[:40] = r[:40]
        r[40:80] = rng.uniform(0.0, _TINY, 40)
        rp[40:80] = r[40:80] / 2
        g = green_partial_array(j, m, chi, r, rp)
        x = m * (r - rp)
        kt, sech_den = _real_factors(v, chi)
        with np.errstate(all="ignore"):
            line_re = _line_re_array(v, chi, kt, sech_den, x) / m
            line_im = -np.cos(chi * x) / kt / m
        for k in range(n):
            kin = Kinematics(m, float(chi[k]))
            for got, re, im in ((green_partial(j, kin, float(r[k]), float(rp[k])),
                                 g.real[k], g.imag[k]),
                                (green_line(j, kin, float(r[k] - rp[k])),
                                 line_re[k], line_im[k])):
                assert (got.real.hex(), got.imag.hex()) == (float(re).hex(), float(im).hex())


def test_spectral_oracle_refuses_non_finite_radii():
    # r = inf once raised ZeroDivisionError, and NaN ValueError
    for r, rp in ((math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(DomainError, match="radial coordinates must be finite"):
            green_spectral_oracle(1, BoundEnergy(1.0, 0.5), r, rp)


def test_array_kernel_refuses_a_negative_rapidity():
    # Im G is odd in chi: a negative rapidity would give the conjugate kernel
    for chi in (-0.5, np.array([0.5, -1e-300]), np.array([-1.0, 0.0])):
        with pytest.raises(DomainError, match="rapidity must be non-negative"):
            green_partial_array(1, 1.0, chi, 1.0, 2.0)


def test_array_kernel_keeps_the_digits_of_a_subnormal_sine_product():
    # at m = 1e-310 the product sin(chi m r) sin(chi m r') is subnormal
    # while Im G is not; dividing it by K_j / m and m kept about three
    # digits.  The reference takes the exact doubles m, chi, r, r' to 40
    # digits; the sine sin(chi m r') = chi m is itself a subnormal, whose
    # rounding costs up to 1e-13
    mp = pytest.importorskip("mpmath")
    m, chi = 1e-310, 0.5
    for j in ALL_VARIANTS:
        v = _variant(j)
        for r, rp in ((1e300, 1.0), (1.0, 1e300), (3e299, 2.5)):
            got = float(green_partial_array(j, m, chi, r, rp).imag)
            with mp.workdps(40):
                x = mp.mpf(chi) * mp.mpf(m)
                k = mp.mpf(v.k_scale) * mp.mpf(m) * mp.sinh(mp.mpf(v.k_rate) * mp.mpf(chi))
                ref = float(-2 * mp.sin(x * mp.mpf(r)) * mp.sin(x * mp.mpf(rp)) / k)
            assert abs(got - ref) <= 1e-12 * abs(ref)
            mirror = float(green_partial_array(j, m, chi, rp, r).imag)
            assert got.hex() == mirror.hex()


@pytest.mark.parametrize("r, rp", [(-1.0, 0.5), (0.5, -1.0), (np.array([1.0, -0.5]), 2.0),
                                   (1.0, np.array([[2.0], [-1e-300]]))])
def test_array_kernel_refuses_negative_radii(r, rp):
    # as the scalar green_partial does
    with pytest.raises(DomainError, match="radial coordinates must be non-negative"):
        green_partial_array(1, 1.0, 0.5, r, rp)
    if np.ndim(r) == np.ndim(rp) == 0:
        with pytest.raises(DomainError, match="radial coordinates must be non-negative"):
            green_partial(1, Kinematics(1.0, 0.5), r, rp)


def bound_term_scale(j: int, m: float, w: float, r: float, rp: float) -> float:
    """Sum of the magnitudes of the terms summed into G_j(i w, r, r').

    In exponential form a sinh ratio is e^{-w x} (1 - e^{-2 alpha x}) / (1 -
    e^{-2 beta x}), which cancels where alpha x is small; its two terms
    count separately.
    """
    kb = k_factor_bound(j, BoundEnergy(m, w))
    beta = math.pi / 2 if j in (1, 3) else math.pi
    alpha = beta - w
    total = 0.0
    for x in (abs(m * (r - rp)), m * (r + rp)):
        if j != 3 and beta * x > _EXP_SWITCH:
            ratio = math.exp(-w * x) * (1.0 + math.exp(-2.0 * alpha * x))
        else:
            ratio = _hyperbolic_ratio("cosh" if j == 3 else "sinh", alpha, beta, x)
        total += ratio / kb
        if j == 2:
            total += _sech(math.pi * x / 2) / (4.0 * m * math.cos(w))
    return total


def _line_bound(v: _Variant, w: float, kt: float, x: float) -> float:
    """m G_j(i w, r) at x = m r, with kt = K_j(i w) / (i m) given.

    With beta = rate and alpha = beta - w, the ratio cosh(alpha x) /
    cosh(beta x) (j = 3) is e^{-w x} (1 + e^{-2 alpha x}) / (1 + e^{-2 beta
    x}), and sinh(alpha x) / sinh(beta x) is e^{-w x} expm1(-2 alpha x) /
    expm1(-2 beta x), which takes its limit alpha / beta where alpha x is
    below _TINY, where it is 0/0 or subnormal.
    """
    x = abs(x)
    beta = v.rate
    alpha = beta - w
    if v.tanh:
        ratio = math.exp(-w * x) * (1.0 + math.exp(-2.0 * alpha * x)) / (
            1.0 + math.exp(-2.0 * beta * x))
    elif alpha * x < _TINY:
        ratio = alpha / beta
    else:
        ratio = math.exp(-w * x) * math.expm1(-2.0 * alpha * x) / math.expm1(-2.0 * beta * x)
    g = -ratio / kt
    if v.sech:
        g += _sech(math.pi * x / 2) / (4.0 * math.cos(w))
    return g


def _scalar_partial_bound(j: int, m: float, w: float, r: float, rp: float) -> float:
    """G_j(i w, r, r') from the scalar math-module body the library had before
    its bound branch kept one array body (_line_bound above, as it was), so
    the array body is not checked against itself."""
    v = _variant(j)
    kt = v.k_scale * math.sin(v.k_rate * w)
    return (_line_bound(v, w, kt, m * (r - rp)) - _line_bound(v, w, kt, m * (r + rp))) / m


# r = r' (x = 0 on the direct line), r = r' = 0, the m r ~ 1 range, both
# sides of bound_term_scale's _EXP_SWITCH for beta = pi (x = 9.55) and
# beta = pi/2 (x = 19.1), and separations where a direct sinh would
# overflow (x = 600)
_BOUND_PAIRS = [(1.0, 1.0), (0.0, 0.0), (0.0, 0.7), (0.5, 2.3), (4.5, 4.5), (5.0, 5.0),
                (9.0, 9.0), (10.0, 10.0), (9.0, 10.5), (30.0, 0.2), (300.0, 300.0)]


def _assert_bound_array_matches_scalar(ws: np.ndarray, ulps: float) -> None:
    eps = np.finfo(float).eps
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for j in ALL_VARIANTS:
            for m in (0.5, 1.0, 2.0):
                for r, rp in _BOUND_PAIRS:
                    got = green_partial_bound_array(j, m, ws, r, rp)
                    assert got.shape == ws.shape
                    for w, value in zip(ws.tolist(), got.tolist()):
                        ref = _scalar_partial_bound(j, m, w, r, rp)
                        assert abs(value - ref) <= ulps * eps * bound_term_scale(j, m, w, r, rp)


def test_bound_array_kernel_matches_scalar():
    # gate: a few ulp of the magnitudes of the terms summed (worst seen 2.2).
    # At m = 1 the pairs (4.5, 4.5) / (5, 5) put m (r + r') = 9 / 10 on
    # either side of bound_term_scale's switch for beta = pi, and (9, 9) /
    # (10, 10) put 18 / 20 on either side of it for beta = pi / 2
    _assert_bound_array_matches_scalar(np.linspace(1e-6, math.pi / 2 - 1e-6, 97), 4.0)


def _random_bound_points(rng, n: int):
    """n random (w, r, r') for one m: r = r' for 40 of them, m r and m r'
    below _TINY for 40, and w at BOUND_W_LO and BOUND_W_HI for 20 each."""
    m = float(rng.uniform(0.3, 2.0))
    w = rng.uniform(BOUND_W_LO, BOUND_W_HI, n)
    r = rng.uniform(0.0, 30.0, n)
    rp = rng.uniform(0.0, 30.0, n)
    rp[:40] = r[:40]
    r[40:80] = rng.uniform(0.0, _TINY, 40)
    rp[40:80] = r[40:80] / 2
    w[80:100] = BOUND_W_LO
    w[100:120] = BOUND_W_HI
    return m, w, r, rp


def test_bound_array_kernel_matches_scalar_at_random_points():
    # the gate of test_bound_array_kernel_matches_scalar at 250 random
    # points per j, drawn as in test_scalar_bound_kernels_are_0d_calls
    eps = np.finfo(float).eps
    rng = np.random.default_rng(26)
    for j in ALL_VARIANTS:
        m, w, r, rp = _random_bound_points(rng, 250)
        got = green_partial_bound_array(j, m, w, r, rp)
        for args, value in zip(zip(w.tolist(), r.tolist(), rp.tolist()), got.tolist()):
            ref = _scalar_partial_bound(j, m, *args)
            assert abs(value - ref) <= 4.0 * eps * bound_term_scale(j, m, *args)


def test_scalar_bound_kernels_are_0d_calls_of_the_array_body():
    # green_partial_bound and green_line_bound give the vector results bit
    # for bit, at random points, at r = r' (the x = 0 limit), where m r and
    # m (r -+ r') are below _TINY, and at both edges of the w window
    rng = np.random.default_rng(25)
    for j in ALL_VARIANTS:
        v = _variant(j)
        m, w, r, rp = _random_bound_points(rng, 250)
        g = green_partial_bound_array(j, m, w, r, rp)
        with np.errstate(all="ignore"):
            line = _line_bound_array(v, w, *_bound_factors(v, w), m * (r - rp)) / m
        for k in range(len(w)):
            be = BoundEnergy(m, float(w[k]))
            assert (green_partial_bound(j, be, float(r[k]), float(rp[k])).hex()
                    == float(g[k]).hex())
            assert green_line_bound(j, be, float(r[k] - rp[k])).hex() == float(line[k]).hex()


def test_bound_array_kernel_at_the_w_edges():
    # at w = BOUND_W_LO the line terms are O(1 / w) = O(1e9) and cancel, so
    # the same ulp gate allows absolute differences near 1e-6 (2.4e-7 seen,
    # against values of order 1); at BOUND_W_HI the j = 2 terms are
    # O(1 / cos w) and differ by up to 6e-8.  Both routes share that
    # cancellation (the threshold error of the bound branch)
    _assert_bound_array_matches_scalar(np.array([BOUND_W_LO, BOUND_W_HI]), 4.0)


def test_bound_array_kernel_broadcasts_and_guards():
    ws = np.array([0.3, 0.9])
    r = np.array([[0.5], [2.0], [12.0]])
    got = green_partial_bound_array(2, 1.3, ws, r, 1.0)
    assert got.shape == (3, 2)
    for i, rr in enumerate(r[:, 0].tolist()):
        for k, w in enumerate(ws.tolist()):
            ref = green_partial_bound(2, BoundEnergy(1.3, w), rr, 1.0)
            assert abs(got[i, k] - ref) <= 4 * np.finfo(float).eps * bound_term_scale(
                2, 1.3, w, rr, 1.0)
    for m in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            green_partial_bound_array(1, m, ws, 1.0, 1.0)
    for bad_w in (0.0, math.pi / 2, -0.1, math.nan):
        with pytest.raises(DomainError):
            green_partial_bound_array(1, 1.0, np.array([0.5, bad_w]), 1.0, 1.0)
    for r, rp in ((-1.0, 1.0), (1.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(DomainError):
            green_partial_bound_array(1, 1.0, ws, r, rp)


def test_non_finite_chi_m_r_is_refused():
    # m r = 2e400 overflows; sin(chi m r) has no value there
    kin = Kinematics(1e200, 0.1)
    for j in ALL_VARIANTS:
        with pytest.raises(DomainError, match="chi m r is not finite"):
            green_line(j, kin, 2e200)
        with pytest.raises(DomainError, match="chi m r is not finite"):
            green_partial(j, kin, 1e200, 1e200)
        with pytest.raises(DomainError, match="chi m r is not finite"):
            green_partial_array(j, 1e200, 0.1, 1e200, 1e200)
        assert green_partial(j, kin, 1e-200, 1e-200).imag != 0.0
    # on arrays the refusal names the first point out of reach
    with pytest.raises(DomainError, match=r"chi = 2\.0, m = 1\.0, r = 1e\+308"):
        green_partial_array(1, 1.0, np.array([[0.1], [2.0]]), np.array([1.0, 1e308]), 0.0)
    # r + r' itself overflows: refused, with no RuntimeWarning on the way
    with pytest.raises(DomainError, match="chi m r is not finite"):
        green_partial_array(1, 1.0, 0.1, 1e308, 1e308)
    # with r' != 0 the message names r and r', not their sum
    for call, at in (
        (lambda: green_partial(1, Kinematics(1.0, 0.1), 1e308, 1e308),
         "chi = 0.1, m = 1.0, r + r' = 1e+308 + 1e+308"),
        (lambda: green_partial_array(1, 1.0, 0.1, 1e308, 1e308),
         "chi = 0.1, m = 1.0, r + r' = 1e+308 + 1e+308"),
        (lambda: green_partial_array(1, 1.0, np.array([0.1, 2.0]), 1.0, np.array([2.0, 1e308])),
         "chi = 2.0, m = 1.0, r + r' = 1.0 + 1e+308"),
    ):
        with pytest.raises(DomainError) as exc:
            call()
        assert str(exc.value) == f"chi m r is not finite at {at}"
