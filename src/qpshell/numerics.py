"""Deterministic quadrature and root finding used throughout the package.

Quadrature is an adaptive Gauss-Kronrod 7/15 scheme with interval bisection.
It is hand-rolled rather than delegated so that complex-valued integrands,
a hard recursion-depth contract and bit-reproducible evaluation order are
guaranteed; library integrators remain available to the test suite as
independent oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AccuracyError, DomainError, EvaluationError

# Kronrod-15 abscissae on [-1, 1] (non-negative half) and weights; the
# embedded Gauss-7 rule uses the odd-indexed abscissae.
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
    0.0,
)
_WGK = (
    0.0229353220105292,
    0.0630920926299785,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
    0.2094821410847278,
)
_WG = (
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
    0.4179591836734694,
)

_MAX_DEPTH = 60
_MAX_BISECT = 200
# find_roots_scan bisects each bracket down to this width.
_TOL_X = 1e-12


@dataclass(frozen=True)
class QuadResult:
    """Integral estimate with an error bound and evaluation count."""

    value: complex | float
    err_estimate: float
    evaluations: int


@dataclass(frozen=True)
class BracketRoot:
    """A root located by bisection inside a sign-change bracket."""

    x: float
    residual: float
    bracket: tuple[float, float]


def _is_finite(v) -> bool:
    if isinstance(v, complex):
        return math.isfinite(v.real) and math.isfinite(v.imag)
    return math.isfinite(v)


def _gk15(f: Callable, a: float, b: float):
    """One Kronrod-15 / Gauss-7 panel; returns (k15, |k15 - g7|)."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    k15 = 0.0
    g7 = 0.0
    for i, x in enumerate(_XGK):
        if x == 0.0:
            v = f(center)
            if not _is_finite(v):
                raise EvaluationError(
                    f"integrand returned non-finite value at x = {center!r}", center
                )
            k15 += _WGK[i] * v
            g7 += _WG[3] * v
            continue
        xl = center - half * x
        xr = center + half * x
        vl = f(xl)
        vr = f(xr)
        if not _is_finite(vl):
            raise EvaluationError(
                f"integrand returned non-finite value at x = {xl!r}", xl
            )
        if not _is_finite(vr):
            raise EvaluationError(
                f"integrand returned non-finite value at x = {xr!r}", xr
            )
        k15 += _WGK[i] * (vl + vr)
        if i % 2 == 1:
            g7 += _WG[i // 2] * (vl + vr)
    return half * k15, abs(half * (k15 - g7))


def integrate_adaptive(f: Callable, lo: float, hi: float, tol: float = 1e-10) -> QuadResult:
    """Integrate f over [lo, hi] to absolute accuracy tol (1 + |integral|).

    Panels whose Kronrod/Gauss discrepancy exceeds their share of the budget
    are bisected, depth-first, left half first.  Exceeding the depth limit
    raises AccuracyError with the best available estimate attached.
    """
    lo = float(lo)
    hi = float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"integration limits must be finite, got [{lo}, {hi}]")
    if not math.isfinite(tol) or tol <= 0:
        raise DomainError(f"tol must be a positive finite number, got {tol}")
    if hi < lo:
        raise DomainError(f"integration limits must satisfy lo <= hi, got [{lo}, {hi}]")
    if hi == lo:
        return QuadResult(0.0, 0.0, 0)

    val0, err0 = _gk15(f, lo, hi)
    evaluations = 15
    budget = tol * (1.0 + abs(val0))

    for attempt in (0, 1):
        total = 0.0
        err_total = 0.0
        # Stack entries: (a, b, value, err, budget_share, depth).
        stack = [(lo, hi, val0, err0, budget, 0)]
        while stack:
            a, b, val, err, share, depth = stack.pop()
            if err <= share or (b - a) <= 1e-15 * (abs(a) + abs(b)):
                total += val
                err_total += err
                continue
            if depth >= _MAX_DEPTH:
                # Flush remaining panels into a best-effort estimate.
                best_val = total + val
                best_err = err_total + err
                for _, _, v, e, _, _ in stack:
                    best_val += v
                    best_err += e
                raise AccuracyError(
                    f"adaptive quadrature exceeded depth {_MAX_DEPTH} "
                    f"on panel [{a!r}, {b!r}]",
                    best=QuadResult(best_val, best_err, evaluations),
                )
            mid = 0.5 * (a + b)
            vl, el = _gk15(f, a, mid)
            vr, er = _gk15(f, mid, b)
            evaluations += 30
            stack.append((mid, b, vr, er, 0.5 * share, depth + 1))
            stack.append((a, mid, vl, el, 0.5 * share, depth + 1))
        if err_total <= tol * (1.0 + abs(total)):
            return QuadResult(total, err_total, evaluations)
        # The rough magnitude was misleading; retry once with a budget
        # anchored to the converged value.
        budget = tol * (1.0 + abs(total))
    raise AccuracyError(
        "adaptive quadrature could not satisfy its error bound",
        best=QuadResult(total, err_total, evaluations),
    )


def integrate_semi_infinite(
    f: Callable, lo: float, decay_rate: float, tol: float = 1e-10
) -> QuadResult:
    """Integrate f over [lo, inf) given an exponential decay rate.

    The domain is truncated at R = lo + (ln(1/tol) + 20) / decay_rate and the
    analytic tail bound |f(R)| / decay_rate is folded into the error estimate.
    """
    lo = float(lo)
    decay_rate = float(decay_rate)
    if not math.isfinite(lo):
        raise DomainError(f"lower limit must be finite, got {lo}")
    if not math.isfinite(decay_rate) or decay_rate <= 0:
        raise DomainError(f"decay_rate must be positive, got {decay_rate}")
    if not math.isfinite(tol) or tol <= 0:
        raise DomainError(f"tol must be a positive finite number, got {tol}")
    hi = lo + (math.log(1.0 / tol) + 20.0) / decay_rate
    res = integrate_adaptive(f, lo, hi, tol)
    tail = abs(f(hi)) / decay_rate
    return QuadResult(res.value, res.err_estimate + tail, res.evaluations + 1)


def _scanned(f: Callable[[float], float], x: float) -> float:
    v = f(x)
    if not math.isfinite(v):
        raise EvaluationError(f"scanned function non-finite at x = {x!r}", x)
    return v


def _screened_grid(f: Callable[[float], float], f_grid: Callable,
                   xs: np.ndarray) -> np.ndarray:
    """Grid values from f_grid, with f's value wherever a test is made."""
    vals = np.asarray(f_grid(xs), dtype=float)
    bad = ~np.isfinite(vals)
    if bad.any():
        x = xs[np.argmax(bad)].item()
        raise EvaluationError(f"scanned function non-finite at x = {x!r}", x)
    exact = np.zeros(len(xs), dtype=bool)
    while True:
        pos = vals > 0
        tested = (vals[:-1] == 0.0) | (vals[1:] == 0.0) | (pos[:-1] != pos[1:])
        todo = np.zeros_like(exact)
        todo[:-1] = tested
        todo[1:] |= tested
        todo &= ~exact
        if not todo.any():
            return vals
        k = np.flatnonzero(todo)
        vals[k] = [_scanned(f, x) for x in xs[k].tolist()]
        exact |= todo


def find_roots_scan(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    n_scan: int = 2000,
    f_grid: Callable[[np.ndarray], np.ndarray] | None = None,
) -> list[BracketRoot]:
    """Locate roots of a real function by grid scan plus bisection.

    Every sign change between adjacent grid points is bisected down to a
    bracket of width _TOL_X.  Brackets in which |f| grows instead of shrinking
    (sign-change poles, e.g. tan-like behaviour) are discarded: the refined
    midpoint must not exceed ten times the larger of the smaller endpoint
    magnitude of the original bracket and its slope scale
    |f(b) - f(a)| _TOL_X / (b - a), the residual a simple root leaves after
    bisection, so a root next to a grid point is kept.  Exact zeros at grid
    points are reported directly.
    Returns roots sorted in increasing x.  Roots closer together than the
    grid pitch (hi - lo) / n_scan may be missed; callers choose n_scan.

    The grid is lo + i (hi - lo) / n_scan for i < n_scan, then hi, as one
    array; its exact zeros and sign-change brackets are found with numpy,
    and only the bisection of each bracket is a Python loop.  f is always
    called with Python floats: on every grid point in order when f_grid is
    None, then on the bisection points of each bracket in increasing x.

    f_grid, if given, is f vectorized: it maps the array of the n_scan + 1
    grid points to their values in one call.  Its values only screen the
    grid.  Every grid point that takes part in a zero or sign-change test is
    evaluated again by f, until no screened value is left next to one, so
    the brackets, their endpoint values, the pole test and the exact zeros
    are f's own.  Only a sign that f_grid gets wrong at a point with no
    sign change next to it can make the result differ from the scan by f.
    """
    lo = float(lo)
    hi = float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        raise DomainError(f"scan interval must satisfy lo < hi, got [{lo}, {hi}]")
    if n_scan < 2:
        raise DomainError(f"n_scan must be at least 2, got {n_scan}")

    step = (hi - lo) / n_scan
    xs = np.append(lo + np.arange(n_scan) * step, hi)
    if f_grid is None:
        fs = np.array([_scanned(f, x) for x in xs.tolist()], dtype=float)
    else:
        fs = _screened_grid(f, f_grid, xs)

    roots = [BracketRoot(x, 0.0, (x, x)) for x in xs[fs == 0.0].tolist()]
    pos, nonzero = fs > 0, fs != 0.0
    i = np.flatnonzero(nonzero[:-1] & nonzero[1:] & (pos[:-1] != pos[1:]))
    for a, b, fa, fb in zip(xs[i].tolist(), xs[i + 1].tolist(),
                            fs[i].tolist(), fs[i + 1].tolist()):
        # a simple root leaves a residual up to its slope times half the
        # final bracket; the grid value next to it may be far smaller
        floor_mag = max(min(abs(fa), abs(fb)), abs(fb - fa) * _TOL_X / step)
        va = fa
        for _ in range(_MAX_BISECT):
            if (b - a) <= _TOL_X:
                break
            mid = 0.5 * (a + b)
            vm = f(mid)
            if not math.isfinite(vm):
                # Non-finite inside the bracket: a pole, not a root.
                a = b = mid
                break
            if vm == 0.0:
                a = b = mid
                break
            if (vm > 0) == (va > 0):
                a, va = mid, vm
            else:
                b = mid
        x_root = 0.5 * (a + b)
        residual = abs(f(x_root))
        if not math.isfinite(residual) or residual > 10.0 * floor_mag:
            continue  # magnitude grew under refinement: sign-change pole
        roots.append(BracketRoot(x_root, residual, (a, b)))
    roots.sort(key=lambda r: r.x)
    return roots
