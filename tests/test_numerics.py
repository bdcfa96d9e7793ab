"""Quadrature and root scanning against analytic values and scipy."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qpshell import numerics
from qpshell.errors import AccuracyError, DomainError, EvaluationError
from qpshell.numerics import (
    BracketRoot,
    find_roots_scan,
    integrate_adaptive,
    integrate_semi_infinite,
)


def test_polynomial_exact():
    res = integrate_adaptive(lambda x: x * x, 0.0, 1.0, 1e-12)
    assert abs(res.value - 1.0 / 3.0) < 1e-14
    assert res.err_estimate < 1e-12
    assert res.evaluations >= 15


def test_oscillatory():
    res = integrate_adaptive(np.sin, 0.0, math.pi, 1e-12)
    assert abs(res.value - 2.0) < 1e-12
    res = integrate_adaptive(lambda x: np.cos(40.0 * x), 0.0, 1.0, 1e-12)
    assert abs(res.value - math.sin(40.0) / 40.0) < 1e-12


def test_complex_integrand():
    res = integrate_adaptive(lambda x: np.cos(x) + 1j * np.sin(x), 0.0, 1.0, 1e-12)
    assert abs(res.value - complex(math.sin(1.0), 1.0 - math.cos(1.0))) < 1e-13


def test_endpoint_singularity_fails_honestly():
    # bisection alone cannot certify x^(-1/2) near 0; the refusal must still
    # carry a best-effort estimate that is in fact accurate (the nodes are
    # inside each panel, so x > 0)
    with pytest.raises(AccuracyError) as err:
        integrate_adaptive(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, 1e-9)
    best = err.value.best
    assert abs(best.value - 2.0) < 1e-8
    assert best.err_estimate < 1e-8


def test_against_scipy():
    quad = pytest.importorskip("scipy.integrate").quad

    def f(x):
        return np.exp(-x) * np.sin(3.0 * x * x + 0.5)

    mine = integrate_adaptive(f, 0.0, 4.0, 1e-11)
    ref, _ = quad(f, 0.0, 4.0, epsabs=1e-13, epsrel=1e-13, limit=400)
    assert abs(mine.value - ref) < 1e-10


def test_runaway_subdivision_is_refused():
    # within 1e-6 of the pole at -0.01 the rounding noise of the Kronrod sum
    # exceeds every panel's share, so each round would double its panels
    # down to the width floor; the round limit refuses it with an estimate
    def f(x):
        return x ** 7 - 3.0 * x * x + 1.0 / (x + 0.01)

    with pytest.raises(AccuracyError, match="panels in one round") as err:
        integrate_adaptive(f, -1.0, 2.0, 1e-9)
    assert err.value.best.evaluations <= 60 * 15 * numerics._MAX_PANELS


def test_semi_infinite_decaying_oscillation():
    # integral_0^inf e^{-x} sin(5x) dx = 5/26
    res = integrate_semi_infinite(lambda x: np.exp(-x) * np.sin(5.0 * x), 0.0, 1.0, 1e-11)
    assert abs(res.value - 5.0 / 26.0) < 1e-11


def test_semi_infinite_offset_start():
    # integral_2^inf e^{-3x} dx = e^{-6}/3
    res = integrate_semi_infinite(lambda x: np.exp(-3.0 * x), 2.0, 3.0, 1e-12)
    assert abs(res.value - math.exp(-6.0) / 3.0) < 1e-14


def test_non_finite_integrand_rejected():
    with pytest.raises(EvaluationError):
        integrate_adaptive(lambda x: np.full_like(x, np.nan), 0.0, 1.0, 1e-10)


def test_jump_resolved_by_width_floor():
    # panels straddling the jump shrink to the relative width floor and are
    # then accepted, so even tol = 1e-16 terminates with the exact value
    def f(x):
        return np.where(x < 1.0 / 3.0, 0.0, 1.0)

    res = integrate_adaptive(f, 0.0, 1.0, 1e-16)
    assert abs(res.value - 2.0 / 3.0) < 1e-15


def test_find_roots_sine():
    roots = find_roots_scan(math.sin, 0.5, 10.0, n_scan=500)
    xs = [r.x for r in roots]
    expected = [math.pi, 2 * math.pi, 3 * math.pi]
    assert len(xs) == 3
    assert max(abs(a - b) for a, b in zip(xs, expected)) < 1e-10
    assert all(r.residual < 1e-9 for r in roots)
    assert all(r.bracket[0] <= r.x <= r.bracket[1] for r in roots)


def test_find_roots_filters_poles():
    # tan has sign changes at both zeros and poles; only zeros must survive
    roots = find_roots_scan(math.tan, 0.5, 9.0, n_scan=4000)
    xs = [r.x for r in roots]
    expected = [math.pi, 2 * math.pi]
    assert len(xs) == 2
    assert max(abs(a - b) for a, b in zip(xs, expected)) < 1e-9


def test_find_roots_exact_grid_hit():
    roots = find_roots_scan(lambda x: x - 1.0, 0.0, 2.0, n_scan=2)
    assert len(roots) == 1
    assert roots[0].x == 1.0
    assert roots[0].residual == 0.0


def test_find_roots_keeps_a_root_next_to_a_grid_point():
    # the grid point 6 * 0.05 = 0.30000000000000004 leaves |f| = 5.6e-17
    # there, far below the residual bisection to _TOL_X leaves at the root
    roots = find_roots_scan(lambda x: x - 0.3, 0.0, 1.0, n_scan=20)
    assert len(roots) == 1
    assert abs(roots[0].x - 0.3) < 1e-12
    # a root just off every interior grid point, on either side, is kept
    step = 0.05
    for i in range(1, 20):
        for off in (-1e-15, 1e-15, -1e-13, 1e-13):
            root = i * step + off
            xs = [r.x for r in find_roots_scan(lambda x: 3.0 * (x - root), 0.0, 1.0,
                                               n_scan=20)]
            assert len(xs) == 1 and abs(xs[0] - root) < 1e-12


def test_find_roots_empty():
    assert find_roots_scan(lambda x: 1.0 + x * x, -1.0, 1.0) == []


def test_bad_bounds():
    with pytest.raises(DomainError):
        integrate_adaptive(np.sin, 1.0, 0.0, 1e-10)
    with pytest.raises(DomainError):
        find_roots_scan(math.sin, 2.0, 1.0)


def test_determinism():
    rng = np.random.default_rng(5)
    coeffs = rng.uniform(-1, 1, 6)

    def f(x):
        return sum(c * x ** k for k, c in enumerate(coeffs)) + np.sin(7 * x)

    a = integrate_adaptive(f, 0.0, 3.0, 1e-12)
    b = integrate_adaptive(f, 0.0, 3.0, 1e-12)
    assert a.value == b.value and a.evaluations == b.evaluations


def test_find_roots_grid_screen_non_finite():
    with pytest.raises(EvaluationError):
        find_roots_scan(math.sin, 0.0, 1.0, n_scan=10,
                        f_grid=lambda xs: np.where(xs > 0.5, np.nan, xs))


def _list_scan(f, lo, hi, n_scan):
    """find_roots_scan as it was written on Python lists, with its bisection
    replaced by the same safeguarded Illinois steps: the reference."""
    step = (hi - lo) / n_scan
    xs = [lo + i * step for i in range(n_scan)] + [hi]
    fs = [numerics._scanned(f, x) for x in xs]
    roots = []
    for x, v in zip(xs, fs):
        if v == 0.0:
            roots.append(BracketRoot(x, 0.0, (x, x)))
    for i in range(n_scan):
        fa, fb = fs[i], fs[i + 1]
        if fa == 0.0 or fb == 0.0 or (fa > 0) == (fb > 0):
            continue
        floor_mag = max(min(abs(fa), abs(fb)), abs(fb - fa) * numerics._TOL_X / step)
        a, b = xs[i], xs[i + 1]
        moved = 0
        widths = [math.inf, math.inf]
        for _ in range(numerics._MAX_BISECT):
            if (b - a) <= numerics._TOL_X:
                break
            x = a + fa / (fa - fb) * (b - a)
            x = min(max(x, a + numerics._TOL_X / 2), b - numerics._TOL_X / 2)
            if not a < x < b or (b - a) > 0.5 * widths[-2]:
                x = 0.5 * (a + b)
            vx = f(x)
            if not math.isfinite(vx) or vx == 0.0:
                a = b = x
                break
            widths.append(b - a)
            if (vx > 0) == (fa > 0):
                a, fa = x, vx
                fb = 0.5 * fb if moved == -1 else fb
                moved = -1
            else:
                b, fb = x, vx
                fa = 0.5 * fa if moved == 1 else fa
                moved = 1
        x_root = 0.5 * (a + b)
        residual = abs(f(x_root))
        if not math.isfinite(residual) or residual > 10.0 * floor_mag:
            continue
        roots.append(BracketRoot(x_root, residual, (a, b)))
    roots.sort(key=lambda r: r.x)
    return roots


def _scan_record(scan, f, lo, hi, n_scan):
    """The roots (or the error) of one scan, and every argument f was called with."""
    calls = []

    def recorded(x):
        assert type(x) is float
        calls.append(x)
        return f(x)

    try:
        return scan(recorded, lo, hi, n_scan), calls
    except EvaluationError as exc:
        return ("EvaluationError", str(exc)), calls


@given(
    n_scan=st.integers(2, 40),
    roots=st.lists(st.sampled_from([k / 8 for k in range(9)]) | st.floats(0.0, 1.0), max_size=4),
    poles=st.lists(st.sampled_from([0.3, 0.55, 0.625]) | st.floats(0.0, 1.0), max_size=2),
)
# exact zeros on grid points (0.25, 0.75 with step 1/8) beside a plain root
@example(n_scan=8, roots=[0.25, 0.75, 0.6], poles=[])
# a sign-change pole between grid points, and one on a grid point
@example(n_scan=20, roots=[0.3], poles=[0.55])
@example(n_scan=8, roots=[0.3], poles=[0.625])
def test_find_roots_scan_is_the_list_scan(n_scan, roots, poles):
    # the array scan returns the list scan's roots, brackets and errors, and
    # calls f with the same Python floats in the same order
    def f(x):
        value = 1.0
        for r in roots:
            value *= x - r
        for p in poles:
            value = value / (x - p) if x != p else math.inf
        return value

    got = _scan_record(find_roots_scan, f, 0.0, 1.0, n_scan)
    assert got == _scan_record(_list_scan, f, 0.0, 1.0, n_scan)
    if isinstance(got[0], list):
        assert all(type(r.x) is float and type(r.residual) is float for r in got[0])
