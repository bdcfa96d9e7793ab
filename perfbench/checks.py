"""Per-job output checks, run outside the timed section.

Each check reads the CSV a job wrote and tests it through a route other than
the one that produced it, at the tolerance `qpshell verify` uses for the same
identity.  `check_job` returns a list of failure messages; empty means pass.
"""

from __future__ import annotations

import math

from qpshell.boundstates import det_bound, v0_of_w_explicit
from qpshell.cli import build_parser
from qpshell.errors import QpshellError
from qpshell.greens import green_partial_bound
from qpshell.kinematics import BoundEnergy, Kinematics, k_factor
from qpshell.scattering import (ShellPotential, amplitude_explicit, zero_condition,
                                zero_condition_explicit)

UNITARITY_TOL = 1e-12
AMPLITUDE_TOL = 1e-12
LOCUS_TOL = 1e-8
LEVEL_TOL = 1e-8
V0_TOL = 1e-9
DET_TOL = 1e-10
SAMPLES = 16  # rows per job that get the costlier independent recomputation

HEADERS = {
    "scatter": "j,chi,q,re_f,im_f,sigma0,re_S,im_S,phase_unwrapped,unitarity_defect",
    "zeros": "curve_id,vertex_id,x,y,residual",
    "levels": "j,w,two_body_energy,residual,norm_check",
    "curve": "j,w,curve_id,value,finite_flag",
}

_PARSER = build_parser()


def _sample(rows: list) -> list:
    if len(rows) <= SAMPLES:
        return rows
    return [rows[round(i * (len(rows) - 1) / (SAMPLES - 1))] for i in range(SAMPLES)]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b else abs(a)


def _potential(ns) -> ShellPotential:
    if ns.v0 is not None:
        return ShellPotential.single(ns.v0, ns.a)
    return ShellPotential.double(ns.v1, ns.a1, ns.v2, ns.a2)


def _check_scatter(ns, rows: list[list[str]]) -> list[str]:
    bad = []
    if len(rows) != len(ns.j) * len(ns.chi):
        bad.append(f"{len(rows)} rows, expected {len(ns.j) * len(ns.chi)}")
    pot = _potential(ns)
    for row in rows:
        j, chi, q, re_f, im_f, sigma0, re_s, im_s, _phase, defect = (
            int(row[0]), *map(float, row[1:]))
        f = complex(re_f, im_f)
        worst = max(defect, abs(f.imag - q * abs(f) ** 2) / (1.0 + abs(f) ** 2),
                    abs(abs(complex(re_s, im_s)) - 1.0))
        if not worst < UNITARITY_TOL:
            bad.append(f"j={j} chi={chi!r}: unitarity defect {worst:.3e}")
        if not _rel(sigma0, 4.0 * math.pi * abs(f) ** 2) < UNITARITY_TOL:
            bad.append(f"j={j} chi={chi!r}: sigma0 {sigma0!r} != 4 pi |f|^2")
    oracle_rows = rows if len(pot.shells) == 1 else [r for r in rows if r[0] == "3"]
    for row in _sample(oracle_rows):
        j, chi = int(row[0]), float(row[1])
        f = complex(float(row[3]), float(row[4]))
        f_exp = amplitude_explicit(j, Kinematics(ns.m, chi), pot)
        if not abs(f - f_exp) <= AMPLITUDE_TOL * abs(f_exp):
            bad.append(f"j={j} chi={chi!r}: f differs from the expanded form by "
                       f"{_rel(f, f_exp):.3e} relative")
    return bad


def _explicit_scale(m: float, chi: float, v1: float, a1: float, v2: float, a2: float) -> float:
    """1 + the sum of the magnitudes of the terms `zero_condition_explicit` adds."""
    def s(x: float) -> float:
        return math.sin(chi * m * x)

    def th(x: float) -> float:
        return math.tanh(math.pi * m * x)

    s1, s2 = s(a1), s(a2)
    bracket = (abs(2 * s1 * s2 * th((a2 - a1) / 2) * s(a2 - a1))
               + abs(2 * s1 * s2 * th((a2 + a1) / 2) * s(a2 + a1))
               + abs(th(a1) * s(2 * a1) * s2 * s2) + abs(th(a2) * s(2 * a2) * s1 * s1))
    kj = abs(k_factor(3, Kinematics(m, chi)))
    return 1.0 + abs(v1 * s1 * s1) + abs(v2 * s2 * s2) + abs(v1 * v2) * bracket / kj


def _check_zeros(ns, rows: list[list[str]]) -> list[str]:
    bad = []
    for row in rows:
        residual = float(row[4])
        if not residual < LOCUS_TOL:
            bad.append(f"vertex {row[0]}/{row[1]}: residual {residual:.3e}")
    (j,) = ns.j
    # at x = a1 the two shells merge into one and the two-shell condition
    # does not apply; such vertices keep the residual check above
    interior = [r for r in rows if float(r[2]) != ns.a1]
    for row in _sample(interior):
        x, y = float(row[2]), float(row[3])
        kin = Kinematics(ns.m, y)
        pot = ShellPotential.double(ns.v1, ns.a1, ns.v2, x)
        value = zero_condition(j, kin, pot)
        if not abs(value) < LOCUS_TOL:
            bad.append(f"vertex {row[0]}/{row[1]}: zero_condition {value:.3e} at ({x!r}, {y!r})")
        if j == 3:
            # the expanded form shares no code with the kernels that traced the
            # locus, so a shifted curve shows here even where the scan agrees
            # with itself; it is scaled as the det-curve check is
            err = abs(zero_condition_explicit(kin, pot)) / _explicit_scale(
                ns.m, y, ns.v1, ns.a1, ns.v2, x)
            if not err < LOCUS_TOL:
                bad.append(f"vertex {row[0]}/{row[1]}: expanded condition {err:.3e} "
                           f"relative at ({x!r}, {y!r})")
    return bad


def _check_levels(ns, rows: list[list[str]]) -> list[str]:
    bad = []
    pot = _potential(ns)
    for row in rows:
        j, w, _energy, residual, norm_check = int(row[0]), *map(float, row[1:])
        if not (residual < LEVEL_TOL and norm_check < LEVEL_TOL):
            bad.append(f"j={j} w={w!r}: residual {residual:.3e}, norm_check {norm_check:.3e}")
        if len(pot.shells) == 1:
            v0 = v0_of_w_explicit(j, BoundEnergy(ns.m, w), ns.a)
            if not _rel(v0, ns.v0) < V0_TOL:
                bad.append(f"j={j} w={w!r}: explicit V0(w) = {v0!r}, not {ns.v0!r}")
    return bad


def _det_and_scale(j: int, be: BoundEnergy, pot: ShellPotential) -> tuple[float, float]:
    """det[1 - V G] and the sum of the magnitudes of the terms summed into it."""
    if len(pot.shells) == 1:
        (v0, a), = pot.shells
        scale = 1.0 + abs(v0 * green_partial_bound(j, be, a, a))
    else:
        (v1, a1), (v2, a2) = pot.shells
        g11 = green_partial_bound(j, be, a1, a1)
        g22 = green_partial_bound(j, be, a2, a2)
        g12 = green_partial_bound(j, be, a1, a2)
        scale = (1.0 + abs(v1 * g11) + abs(v2 * g22) + abs(v1 * g11 * v2 * g22)
                 + abs(v1 * v2 * g12 * g12))
    return det_bound(j, be, pot), scale


def _check_curve(ns, rows: list[list[str]]) -> list[str]:
    bad = []
    per_w = 2 if ns.curve == "v1pm" else 1
    if len(rows) != len(ns.j) * ns.n * per_w:
        bad.append(f"{len(rows)} rows, expected {len(ns.j) * ns.n * per_w}")
    finite = []
    for row in rows:
        if row[4] == "1":
            if not math.isfinite(float(row[3])):
                bad.append(f"j={row[0]} w={row[1]}: flagged finite but value {row[3]!r}")
            finite.append(row)
        elif row[4] != "0" or row[3] != "":
            bad.append(f"j={row[0]} w={row[1]}: malformed pole row {row!r}")
    for row in _sample(finite):
        j, w, value = int(row[0]), float(row[1]), float(row[3])
        be = BoundEnergy(ns.m, w)
        if ns.curve == "v0":
            err = _rel(value, v0_of_w_explicit(j, be, ns.a))
            tol = V0_TOL
        else:
            if ns.curve == "det":
                det, scale = _det_and_scale(j, be, _potential(ns))
                det -= value
            else:
                v1 = value if ns.curve == "v1pm" else ns.v1
                v2 = ns.alpha * value if ns.curve == "v1pm" else value
                det, scale = _det_and_scale(j, be, ShellPotential.double(v1, ns.a1, v2, ns.a2))
            err = abs(det) / scale
            tol = DET_TOL
        if not err < tol:
            bad.append(f"j={j} w={w!r} {row[2]}: error {err:.3e} >= {tol:.0e}")
    return bad


def check_job(argv: list[str], text: str) -> list[str]:
    """Failure messages for the CSV `text` that `qpshell argv` wrote."""
    ns = _PARSER.parse_args(argv)
    lines = text.split("\n")
    if lines[-1] != "":
        return ["output does not end with a newline"]
    if lines[0] != "# qpshell " + " ".join(argv):
        return [f"echo line is {lines[0]!r}"]
    kind = ns.command
    if kind == "bound":
        kind = "levels" if ns.levels else "curve"
    if lines[1] != HEADERS[kind]:
        return [f"header is {lines[1]!r}"]
    rows = [line.split(",") for line in lines[2:-1]]
    width = HEADERS[kind].count(",") + 1
    if any(len(row) != width for row in rows):
        return [f"a row does not have {width} fields"]
    checker = {"scatter": _check_scatter, "zeros": _check_zeros,
               "levels": _check_levels, "curve": _check_curve}[kind]
    try:
        return checker(ns, rows)
    except (QpshellError, ValueError, ArithmeticError) as exc:
        return [f"check could not evaluate the output: {exc!r}"]
