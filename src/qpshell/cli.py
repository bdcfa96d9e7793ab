"""Command-line front end: grid sweeps, curve sampling and oracle suites.

Each run writes one CSV table with a fixed column set per command.  The
first line is a single '# ' comment echoing the resolved invocation, so
every file is self-describing; identical invocations produce byte-identical
files.  Fields are comma separated with '\\n' line ends.  Every command hands
its columns to `tables.write_table`, which writes each float exactly as
Python's format(x, ".16e") does (17 significant digits), formatting all of
a table's floats in one numpy pass; a value it cannot decide there
(non-finite, subnormal or beyond about 1e+-280, or rounding within 1e-6 of
a tie) is formatted by Python itself.  Integers and names are written as
str().

Exit codes: 0 success, 2 parameter or domain error, 3 numerical-quality
failure (an oracle disagreed beyond tolerance or a quadrature gave up).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import re
import sys
from typing import Sequence

import numpy as np

from .boundstates import (
    bound_wavefunction,
    level_roots,
    sample_det_curve,
    sample_v0_curve,
    sample_v1pm_curve,
    sample_v2_curve,
)
from .errors import (
    AccuracyError,
    DomainError,
    EvaluationError,
    PoleError,
    QpshellError,
    SingularPointError,
    ThresholdError,
    UnsupportedBranchError,
    UnsupportedFormError,
)
from .greens import green_partial_array, green_partial_bound_array
from .kinematics import ALL_VARIANTS
from .nonrel import limit_convergence
from .numerics import integrate_semi_infinite
from .scattering import ShellPotential, scan_zero_locus, sweep
from .tables import write_table
from .verification import GROUP_NAMES, run_verification

_PARAM_ERRORS = (
    DomainError,
    ThresholdError,
    PoleError,
    SingularPointError,
    UnsupportedBranchError,
    UnsupportedFormError,
)
_QUALITY_ERRORS = (AccuracyError, EvaluationError)


def _parse_range(text: str) -> list[float]:
    """lo:hi:n -> n uniformly spaced points, endpoints included."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"range must be lo:hi:n, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        n = int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"malformed range {text!r}") from exc
    if n < 1 or (n == 1 and lo != hi):
        raise argparse.ArgumentTypeError(
            f"range {text!r} needs n >= 2 points (or n = 1 with lo = hi)"
        )
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi < lo:
        raise argparse.ArgumentTypeError(f"range {text!r} endpoints invalid")
    if n == 1:
        return [lo]
    pts = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    pts[-1] = hi    # exact endpoint despite rounding in the affine form
    return pts


def _parse_j(text: str) -> tuple[int, ...]:
    if text == "all":
        return tuple(int(v) for v in ALL_VARIANTS)
    try:
        j = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"--j must be 1..4 or 'all', got {text!r}") from exc
    if j not in (1, 2, 3, 4):
        raise argparse.ArgumentTypeError(f"--j must be 1..4 or 'all', got {text!r}")
    return (j,)


def _parse_masses(text: str) -> tuple[float, ...]:
    try:
        masses = tuple(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"malformed mass list {text!r}") from exc
    if len(masses) < 3:
        raise argparse.ArgumentTypeError("need at least 3 masses for a convergence run")
    return masses


def _potential_from(ns: argparse.Namespace) -> ShellPotential:
    single = ns.v0 is not None or ns.a is not None
    double = any(v is not None for v in (ns.v1, ns.a1, ns.v2, ns.a2))
    if single and double:
        raise DomainError("give either --v0/--a or --v1/--a1/--v2/--a2, not both")
    if single:
        if ns.v0 is None or ns.a is None:
            raise DomainError("single shell needs both --v0 and --a")
        return ShellPotential.single(ns.v0, ns.a)
    if double:
        missing = [f for f, v in (("--v1", ns.v1), ("--a1", ns.a1),
                                  ("--v2", ns.v2), ("--a2", ns.a2)) if v is None]
        if missing:
            raise DomainError(f"two shells need {' '.join(missing)}")
        return ShellPotential.double(ns.v1, ns.a1, ns.v2, ns.a2)
    raise DomainError("no potential given: use --v0/--a or --v1/--a1/--v2/--a2")


def _cmd_scatter(ns: argparse.Namespace, invocation: str) -> int:
    pot = _potential_from(ns)
    blocks = []
    for j in ns.j:
        sw = sweep(j, ns.m, pot, ns.chi)
        f, s_mat = sw.f, sw.s_matrix
        f2 = np.hypot(f.real, f.imag) ** 2
        defect = np.abs(f.imag - sw.q * f2) / (1.0 + f2)
        blocks.append((np.full(len(sw.chi), j), sw.chi, sw.q, f.real, f.imag, sw.sigma0,
                       s_mat.real, s_mat.imag, sw.phase, defect))
    write_table(ns.out, invocation,
                ["j", "chi", "q", "re_f", "im_f", "sigma0", "re_S", "im_S",
                 "phase_unwrapped", "unitarity_defect"],
                [np.concatenate(column) for column in zip(*blocks)])
    return 0


def _cmd_greens(ns: argparse.Namespace, invocation: str) -> int:
    rp = ns.r if ns.rp is None else ns.rp
    if ns.branch == "real":
        if ns.chi is None:
            raise DomainError("--branch real needs a --chi range")
        grid, kernel = np.array(ns.chi), green_partial_array
    else:
        if ns.w is None:
            raise DomainError("--branch bound needs a --w range")
        grid, kernel = np.array(ns.w), green_partial_bound_array
    n = len(grid)
    blocks = []
    for j in ns.j:
        g = kernel(j, ns.m, grid, ns.r, rp)
        blocks.append((np.full(n, j), np.full(n, ns.branch), grid, np.full(n, ns.r),
                       np.full(n, rp), g.real, g.imag))
    write_table(ns.out, invocation,
                ["j", "branch", "chi_or_w", "r", "rp", "re_G", "im_G"],
                [np.concatenate(column) for column in zip(*blocks)])
    return 0


def _cmd_bound(ns: argparse.Namespace, invocation: str) -> int:
    if ns.levels:
        pot = _potential_from(ns)
        rows = []
        for j in ns.j:
            for w in level_roots(j, ns.m, pot, n_scan=ns.n):
                psi, level = bound_wavefunction(j, ns.m, w, pot)
                decay = 2.0 * level.w * ns.m
                total = integrate_semi_infinite(lambda r: psi(r) ** 2, 0.0, decay, 1e-10)
                rows.append((j, level.w, level.two_body_energy, level.residual,
                             abs(total.value - 1.0)))
        write_table(ns.out, invocation,
                    ["j", "w", "two_body_energy", "residual", "norm_check"], list(zip(*rows)))
        return 0
    if ns.curve is None:
        raise DomainError("bound needs either --levels or --curve")
    needs = {"v0": ("a",), "v2": ("v1", "a1", "a2"), "v1pm": ("a1", "a2", "alpha")}
    missing = [f"--{flag}" for flag in needs.get(ns.curve, ()) if getattr(ns, flag) is None]
    if missing:
        raise DomainError(f"--curve {ns.curve} needs {' '.join(missing)}")
    if ns.curve == "v0":
        curves = [(j, "v0", sample_v0_curve(j, ns.m, ns.a, n=ns.n)) for j in ns.j]
    elif ns.curve == "det":
        pot = _potential_from(ns)
        curves = [(j, "det", sample_det_curve(j, ns.m, pot, n=ns.n)) for j in ns.j]
    elif ns.curve == "v2":
        curves = [(j, "v2", sample_v2_curve(j, ns.m, ns.a1, ns.a2, ns.v1, n=ns.n))
                  for j in ns.j]
    else:  # v1pm
        curves = []
        for j in ns.j:
            plus, minus = sample_v1pm_curve(j, ns.m, ns.a1, ns.a2, ns.alpha, n=ns.n)
            curves += [(j, "v1plus", plus), (j, "v1minus", minus)]
    blocks = [(np.full(len(c), j), c.w, np.full(len(c), curve_id), c.value, c.finite)
              for j, curve_id, c in curves]
    js, ws, ids, values, finite = (np.concatenate(column) for column in zip(*blocks))
    # a flagged point (finite_flag 0) leaves its value field empty
    write_table(ns.out, invocation, ["j", "w", "curve_id", "value", "finite_flag"],
                [js, ws, ids, np.where(finite, values, 0.0), finite.astype(int)],
                empty={3: ~finite})
    return 0


def _cmd_zeros(ns: argparse.Namespace, invocation: str) -> int:
    if len(ns.j) != 1:
        raise DomainError("zeros writes one variant per file; give a single --j")
    a2s, chis = ns.a2, ns.chi
    locus = scan_zero_locus(
        ns.j[0], ns.m, ns.a1, ns.v1, ns.v2,
        (a2s[0], a2s[-1]), (chis[0], chis[-1]), grid=(len(a2s), len(chis)),
    )
    curves = locus.curves
    counts = np.fromiter(map(len, curves), np.int64, len(curves))
    n = int(counts.sum())
    curve_id = np.repeat(np.arange(len(curves)), counts)
    vertex_id = np.arange(n) - np.repeat(np.cumsum(counts) - counts, counts)
    flat = itertools.chain.from_iterable
    xyr = np.fromiter(flat(flat(curves)), float, 3 * n).reshape(n, 3)
    write_table(ns.out, invocation, ["curve_id", "vertex_id", "x", "y", "residual"],
                [curve_id, vertex_id, *xyr.T])
    return 0


def _cmd_nrlimit(ns: argparse.Namespace, invocation: str) -> int:
    observables = (("amplitude", "gf", "quantization") if ns.observable == "all"
                   else (ns.observable,))
    rows = []
    for observable in observables:
        if observable == "amplitude":
            params = dict(q=ns.q, pot=ShellPotential.single(ns.v0, ns.a_scatter))
        elif observable == "gf":
            params = dict(q=ns.q, r=ns.r, rp=ns.rp)
        else:
            params = dict(kappa=ns.kappa, a=ns.a_bound)
        for j in ns.j:
            report = limit_convergence(observable, j, ns.masses, **params)
            rows += [(observable, j, mass, deviation)
                     for mass, deviation in zip(report.masses, report.deviations)]
    write_table(ns.out, invocation, ["observable", "j", "mass", "deviation"], list(zip(*rows)))
    return 0


def _cmd_verify(ns: argparse.Namespace, invocation: str) -> int:
    groups = None if not ns.group else ns.group
    results = run_verification(groups)
    width = max(len(r.name) for r in results)
    sys.stdout.write(f"# qpshell {invocation}\n")
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        sys.stdout.write(
            f"{r.name:<{width}s}  {status}  worst {r.worst:.3e}  tol {r.tolerance:.0e}"
            f"  checks {r.n_checks}  violations {r.violations}  {r.detail}\n"
        )
    failed = [r.name for r in results if not r.passed]
    if failed:
        sys.stderr.write(f"failed groups: {', '.join(failed)}\n")
        return 3
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse reading any token that starts like a negative number, such as
    -1e-3 or the range -1:1:3, as the value of the option before it.  Before
    Python 3.13 argparse took only plain negative decimals so, and read
    `--v0 -1e-3` as an option missing its value; no qpshell option looks
    like a negative number.  Subparsers are made of the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def _add_potential_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--v0", type=float, default=None, help="single-shell strength")
    p.add_argument("--a", type=float, default=None, help="single-shell radius")
    p.add_argument("--v1", type=float, default=None, help="inner strength")
    p.add_argument("--a1", type=float, default=None, help="inner radius")
    p.add_argument("--v2", type=float, default=None, help="outer strength")
    p.add_argument("--a2", type=float, default=None, help="outer radius")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The qpshell parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(
        prog="qpshell",
        description="Delta-shell scattering and bound-state tables for the "
                    "four two-particle equation variants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scatter", help="amplitude/S-matrix/phase sweep over rapidity")
    p.add_argument("--j", type=_parse_j, default=(1, 2, 3, 4))
    p.add_argument("--m", type=float, required=True)
    _add_potential_flags(p)
    p.add_argument("--chi", type=_parse_range, required=True, metavar="LO:HI:N")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_scatter)

    p = sub.add_parser("greens", help="partial-wave kernel values on a grid")
    p.add_argument("--j", type=_parse_j, default=(1, 2, 3, 4))
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--branch", choices=("real", "bound"), required=True)
    p.add_argument("--chi", type=_parse_range, default=None, metavar="LO:HI:N")
    p.add_argument("--w", type=_parse_range, default=None, metavar="LO:HI:N")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--rp", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_greens)

    p = sub.add_parser("bound", help="quantization curves or solved levels")
    p.add_argument("--j", type=_parse_j, default=(1, 2, 3, 4))
    p.add_argument("--m", type=float, required=True)
    _add_potential_flags(p)
    p.add_argument("--curve", choices=("v0", "det", "v2", "v1pm"), default=None)
    p.add_argument("--levels", action="store_true")
    p.add_argument("--alpha", type=float, default=None,
                   help="strength ratio V2/V1 for --curve v1pm")
    p.add_argument("--n", type=int, default=2000,
                   help="curve sample count, or with --levels the level scan's interval count")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser("zeros", help="transparency curves in the (a2, chi) plane")
    p.add_argument("--j", type=_parse_j, required=True)
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--a1", type=float, required=True)
    p.add_argument("--v1", type=float, required=True)
    p.add_argument("--v2", type=float, required=True)
    p.add_argument("--a2", type=_parse_range, required=True, metavar="LO:HI:N")
    p.add_argument("--chi", type=_parse_range, required=True, metavar="LO:HI:N")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_zeros)

    p = sub.add_parser("nrlimit", help="heavy-mass deviation from static forms")
    p.add_argument("--observable", choices=("amplitude", "gf", "quantization", "all"),
                   default="all")
    p.add_argument("--j", type=_parse_j, default=(1, 2, 3, 4))
    p.add_argument("--masses", type=_parse_masses, default=(10.0, 100.0, 1000.0))
    p.add_argument("--q", type=float, default=0.6)
    p.add_argument("--v0", type=float, default=2.0)
    p.add_argument("--a-scatter", type=float, default=5.0)
    p.add_argument("--r", type=float, default=1.2)
    p.add_argument("--rp", type=float, default=0.4)
    p.add_argument("--kappa", type=float, default=0.5)
    p.add_argument("--a-bound", type=float, default=1.0)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_nrlimit)

    p = sub.add_parser("verify", help="run the oracle suites, print a pass/fail table")
    p.add_argument("--group", action="append", choices=GROUP_NAMES, default=None)
    p.set_defaults(handler=_cmd_verify)

    return parser


def _echoed_args(argv: Sequence[str]) -> str:
    """The invocation for the '# ' header, minus the output destination.

    Every flag that influences a computed value is kept; --out is not one,
    and dropping it keeps files written to different paths comparable.
    """
    kept = []
    skip = False
    for arg in argv:
        if skip:
            skip = False
            continue
        if arg == "--out":
            skip = True
            continue
        if arg.startswith("--out="):
            continue
        kept.append(arg)
    return " ".join(kept)


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    ns = parser.parse_args(argv)
    invocation = _echoed_args(argv)
    try:
        return ns.handler(ns, invocation)
    except _QUALITY_ERRORS as exc:
        sys.stderr.write(f"accuracy failure: {exc}\n")
        return 3
    except _PARAM_ERRORS as exc:
        sys.stderr.write(f"parameter error: {exc}\n")
        return 2
    except QpshellError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
