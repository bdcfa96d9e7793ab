"""Deterministic quadrature and root finding used throughout the package.

Quadrature is an adaptive Gauss-Kronrod 7/15 scheme with interval bisection,
over a vectorized integrand: each round of bisection evaluates the nodes of
all its panels in one call.  It is hand-rolled rather than delegated so that
complex-valued integrands, a hard recursion-depth contract and a
bit-reproducible summation order are guaranteed; library integrators remain
available to the test suite as independent oracles.

Root finding scans a grid, in one vectorized call if one is given, and
refines each sign change by safeguarded Illinois regula falsi on the scalar
function, point by point.
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
# A panel's nodes on [-1, 1]: the center, then each abscissa pair (-x, +x)
# from the outermost in.  The weights of its seven pair sums and its center,
# Kronrod in column 0 and Gauss in column 1 (0 on the even pairs).
_NODES = np.array([0.0] + [s * x for x in _XGK[:7] for s in (-1.0, 1.0)])
_WEIGHTS = np.array([(_WGK[i], _WG[i // 2] if i % 2 else 0.0) for i in range(7)]
                    + [(_WGK[7], _WG[3])])

_MAX_DEPTH = 60
# A round evaluates at most this many panels, so an integrand whose rounding
# noise keeps every panel open is refused in bounded memory and time.
_MAX_PANELS = 2 ** 14
_MAX_BISECT = 200
# find_roots_scan refines each bracket down to this width.
_TOL_X = 1e-12


@dataclass(frozen=True)
class QuadResult:
    """Integral estimate with an error bound and evaluation count."""

    value: complex | float
    err_estimate: float
    evaluations: int


@dataclass(frozen=True)
class BracketRoot:
    """A root located by refinement inside a sign-change bracket."""

    x: float
    residual: float
    bracket: tuple[float, float]


def _gk15(f: Callable, a: np.ndarray, b: np.ndarray):
    """Kronrod-15 / Gauss-7 on every panel [a_i, b_i], with all their nodes
    in one call of f; returns the arrays (k15, |k15 - g7|).

    Each panel's nodes are laid out center first, then the abscissa pairs
    from the outermost in; each sum adds its terms in that pair order, the
    center last, as a loop over the abscissae would.
    """
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    flat = (center[:, None] + half[:, None] * _NODES).ravel()
    vals = np.asarray(f(flat))
    if not np.isfinite(vals).all():
        x = flat[np.argmin(np.isfinite(vals))].item()
        raise EvaluationError(f"integrand returned non-finite value at x = {x!r}", x)
    vals = vals.reshape(len(a), 15)
    terms = np.empty((len(a), 8), dtype=vals.dtype)
    terms[:, :7] = vals[:, 1::2] + vals[:, 2::2]
    terms[:, 7] = vals[:, 0]
    # accumulate adds along each row in order; a 0 weight adds an exact 0
    k15, g7 = np.add.accumulate(terms[:, :, None] * _WEIGHTS, axis=1)[:, -1].T
    return half * k15, np.abs(half * (k15 - g7))


def _in_order(panels: list) -> tuple:
    """The sums of the values and errors of (lefts, values, errors) panel
    arrays, added one by one in increasing x of the left ends."""
    lefts, values, errs = (np.concatenate(column) for column in zip(*panels))
    order = np.argsort(lefts, kind="stable")
    total = err_total = 0.0
    for v, e in zip(values[order].tolist(), errs[order].tolist()):
        total += v
        err_total += e
    return total, err_total


def integrate_adaptive(f: Callable, lo: float, hi: float, tol: float = 1e-10) -> QuadResult:
    """Integrate f over [lo, hi] to absolute accuracy tol (1 + |integral|).

    f is vectorized: it maps a 1-d float array of nodes to their real or
    complex values.  Panels whose Kronrod/Gauss discrepancy exceeds their
    share of the budget (halved at each depth) are bisected, and each round
    of bisection evaluates all its new panels in one call of f.  The
    accepted panels are those of a depth-first bisection, and they are
    summed in increasing x.  A panel still open at depth _MAX_DEPTH, or a
    round that would hold more than _MAX_PANELS panels, raises AccuracyError
    with the best available estimate attached.
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

    lo0, hi0 = np.array([lo]), np.array([hi])
    val0, err0 = _gk15(f, lo0, hi0)
    evaluations = 15
    budget = tol * (1.0 + abs(val0.item()))
    if err0.item() <= budget:  # the whole interval is one accepted panel
        return QuadResult(val0.item(), err0.item(), evaluations)

    for attempt in (0, 1):
        accepted = []
        a, b, val, err = lo0, hi0, val0, err0
        share = budget
        for depth in range(_MAX_DEPTH + 1):
            done = (err <= share) | ((b - a) <= 1e-15 * (np.abs(a) + np.abs(b)))
            accepted.append((a[done], val[done], err[done]))
            a, b, val, err = a[~done], b[~done], val[~done], err[~done]
            if not len(a):
                break
            if depth == _MAX_DEPTH or 2 * len(a) > _MAX_PANELS:
                best_val, best_err = _in_order(accepted + [(a, val, err)])
                limit = (f"depth {_MAX_DEPTH}" if depth == _MAX_DEPTH
                         else f"{_MAX_PANELS} panels in one round at depth {depth + 1}")
                raise AccuracyError(
                    f"adaptive quadrature exceeded {limit} "
                    f"on panel [{a[0].item()!r}, {b[0].item()!r}]",
                    best=QuadResult(best_val, best_err, evaluations),
                )
            edges = np.empty((len(a), 3))
            edges[:, 0], edges[:, 1], edges[:, 2] = a, 0.5 * (a + b), b
            a, b = edges[:, :2].ravel(), edges[:, 1:].ravel()
            val, err = _gk15(f, a, b)
            evaluations += 15 * len(a)
            share = 0.5 * share
        total, err_total = _in_order(accepted)
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
    tail = float(abs(f(hi))) / decay_rate
    return QuadResult(res.value, res.err_estimate + tail, res.evaluations + 1)


def _scanned(f: Callable[[float], float], x: float) -> float:
    v = f(x)
    if not math.isfinite(v):
        raise EvaluationError(f"scanned function non-finite at x = {x!r}", x)
    return v


def find_roots_scan(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    n_scan: int = 2000,
    f_grid: Callable[[np.ndarray], np.ndarray] | None = None,
) -> list[BracketRoot]:
    """Locate roots of a real function by grid scan plus refinement.

    Every sign change between adjacent grid points is refined down to a
    bracket of width _TOL_X by safeguarded Illinois regula falsi.  Each step
    evaluates f at the false-position point, kept _TOL_X / 2 from either end
    so that a bracket whose one end has converged closes from the other in
    one step, or at the midpoint when that point is not strictly inside or
    the bracket has not halved in the last two steps.  The point replaces
    the end of its sign, and when one end moves twice in a row the value
    kept at the other is halved.  A point where f is 0, or not finite (a
    pole), ends the refinement there.  Brackets in which |f| grows instead
    of shrinking (sign-change poles, e.g. tan-like behaviour) are discarded:
    the refined midpoint must not exceed ten times the larger of the smaller
    endpoint magnitude of the original bracket and its slope scale
    |f(b) - f(a)| _TOL_X / (b - a), the residual a simple root leaves in a
    bracket of width _TOL_X, so a root next to a grid point is kept.  Exact
    zeros at grid points are reported directly.
    Returns roots sorted in increasing x.  Roots closer together than the
    grid pitch (hi - lo) / n_scan may be missed; callers choose n_scan.

    The grid is lo + i (hi - lo) / n_scan for i < n_scan, then hi, as one
    array; its exact zeros and sign-change brackets are found with numpy,
    and only the refinement of each bracket is a Python loop.  f is always
    called with Python floats: on every grid point in order when f_grid is
    None, then on the refinement points of each bracket in increasing x.

    f_grid, if given, is f vectorized: it maps the array of the n_scan + 1
    grid points to their values in one call, and those are the grid values.
    It must give f's values bit for bit (as a numpy body and its 0-d calls
    do), or the brackets, the pole test and the exact zeros rest on values
    that f would not give.
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
        fs = np.asarray(f_grid(xs), dtype=float)
        bad = ~np.isfinite(fs)
        if bad.any():
            x = xs[np.argmax(bad)].item()
            raise EvaluationError(f"scanned function non-finite at x = {x!r}", x)

    roots = [BracketRoot(x, 0.0, (x, x)) for x in xs[fs == 0.0].tolist()]
    pos, nonzero = fs > 0, fs != 0.0
    i = np.flatnonzero(nonzero[:-1] & nonzero[1:] & (pos[:-1] != pos[1:]))
    for a, b, fa, fb in zip(xs[i].tolist(), xs[i + 1].tolist(),
                            fs[i].tolist(), fs[i + 1].tolist()):
        # a simple root leaves a residual up to its slope times half the
        # final bracket; the grid value next to it may be far smaller
        floor_mag = max(min(abs(fa), abs(fb)), abs(fb - fa) * _TOL_X / step)
        moved = 0  # the end that moved last: -1 a, +1 b
        one_back = two_back = math.inf  # bracket widths one and two steps ago
        for _ in range(_MAX_BISECT):
            width = b - a
            if width <= _TOL_X:
                break
            x = min(max(a + fa / (fa - fb) * width, a + 0.5 * _TOL_X), b - 0.5 * _TOL_X)
            if not a < x < b or width > 0.5 * two_back:
                x = 0.5 * (a + b)
            vx = f(x)
            if vx == 0.0 or not math.isfinite(vx):
                a = b = x
                break
            if (vx > 0) == (fa > 0):
                a, fa, fb = x, vx, (0.5 * fb if moved == -1 else fb)
                moved = -1
            else:
                b, fb, fa = x, vx, (0.5 * fa if moved == 1 else fa)
                moved = 1
            one_back, two_back = width, one_back
        x_root = 0.5 * (a + b)
        residual = abs(f(x_root))
        if not math.isfinite(residual) or residual > 10.0 * floor_mag:
            continue  # magnitude grew under refinement: sign-change pole
        roots.append(BracketRoot(x_root, residual, (a, b)))
    roots.sort(key=lambda r: r.x)
    return roots
