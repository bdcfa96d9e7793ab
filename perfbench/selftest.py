"""Self-test of the benchmark's own machinery, run by `run.py --selftest`.

1. The output checker passes clean outputs and fails tampered ones: one
   digit changed in a scatter row, one locus residual and one norm_check.
   A job that raises inside the program counts as wrong, not as a refusal.
2. The tracer reproduces the exact counts of the 300^2 reference locus and
   puts every hooked function back afterwards.
3. BENCHMARK.json names exactly the workloads and per-layer metrics the
   benchmark has.
"""

from __future__ import annotations

import re

import run
import tracer as tracing

REFERENCE = ["zeros", "--j", "1", "--m", "1", "--a1", "3", "--v1", "1", "--v2", "-1",
             "--a2", "3:8:300", "--chi", "0.1:3:300"]
REFERENCE_COUNTS = {
    "grid evaluations": 90_000,
    "refinement evaluations": 93_625,
    "refined vertices": 3_535,
    "green_line calls": 1_101_750,
}
SMALL_JOBS = [
    ["scatter", "--j", "all", "--m", "1", "--a", "5", "--v0", "2", "--chi", "0.05:4:16"],
    ["zeros", "--j", "1", "--m", "1", "--a1", "3", "--v1", "1", "--v2", "-1",
     "--a2", "3:8:64", "--chi", "0.1:3:64"],
    ["bound", "--j", "all", "--m", "1", "--a", "1", "--v0", "-2", "--levels"],
]


def _field(text: str, row: int, column: int) -> tuple[int, int]:
    """Start and end offsets of one CSV field of data row `row`."""
    lines = text.split("\n")
    offset = sum(len(line) + 1 for line in lines[:2 + row])
    fields = lines[2 + row].split(",")
    start = offset + sum(len(f) + 1 for f in fields[:column])
    return start, start + len(fields[column])


def _tamper_mantissa(text: str, row: int, column: int) -> str:
    start, _ = _field(text, row, column)
    pos = start + (4 if text[start] == "-" else 3)   # a digit after the point
    digit = "1" if text[pos] != "1" else "2"
    return text[:pos] + digit + text[pos + 1:]


def _tamper_exponent(text: str, row: int, column: int) -> str:
    """Zero the leading non-zero exponent digit: 1.2e-11 becomes 1.2e-01."""
    start, end = _field(text, row, column)
    field = text[start:end]
    pos = start + field.index("e-") + 2
    if text[pos] == "0":
        pos += 1
    return text[:pos] + "0" + text[pos + 1:]


def check_checker() -> list[str]:
    problems = []
    with run.workdir() as outdir:
        done = run.Pass(SMALL_JOBS, outdir)
        clean = [data.decode() for data in done.outputs()]
    if done.errors or run.check_outputs(SMALL_JOBS, [t.encode() for t in clean], {})[0]:
        return ["the checker rejects clean outputs"]
    tampered = [
        _tamper_mantissa(clean[0], 5, 3),      # re_f of one scatter row
        _tamper_exponent(clean[1], 7, 4),      # one locus residual
        _tamper_exponent(clean[2], 0, 4),      # one norm_check
    ]
    _, wrong = run.check_outputs(SMALL_JOBS, [t.encode() for t in tampered], {})
    for i, argv in enumerate(SMALL_JOBS):
        if i not in wrong:
            problems.append(f"tampered output of '{' '.join(argv)}' passed the checker")
    # a crash inside the program is wrong output, not a typed failure
    original = run.cli.sweep

    def broken(*args, **kwargs):
        raise IndexError("injected")

    run.cli.sweep = broken
    try:
        with run.workdir() as outdir:
            crashed = run.Pass(SMALL_JOBS[:1], outdir)
            _, wrong = run.check_outputs(SMALL_JOBS[:1], crashed.outputs(), crashed.errors)
    finally:
        run.cli.sweep = original
    if 0 not in wrong:
        problems.append("a job that raised IndexError was not counted as wrong")
    return problems


def check_tracer() -> list[str]:
    tracer = tracing.Tracer()
    with run.workdir() as outdir, tracer:
        done = run.Pass([REFERENCE], outdir, tracer)
    if done.errors:
        return [f"reference job failed: {done.errors}"]
    cond, refine = "scattering._zero_condition_raw", "scattering._refine_edge_zero"
    spans = {index: span[0] for index, span in enumerate(tracer.spans)}
    grid = sum(c[0] for (p, n), c in tracer.cells.items()
               if n == cond and spans.get(p) == "scattering.scan_zero_locus")
    refined = sum(c[0] for (p, n), c in tracer.cells.items()
                  if n == cond and spans.get(p) == refine)
    seen = {
        "grid evaluations": grid,
        "refinement evaluations": refined,
        "refined vertices": sum(1 for name in spans.values() if name == refine),
        "green_line calls": sum(c[0] for (_, n), c in tracer.cells.items()
                                if n == "greens.green_line"),
    }
    problems = [f"{what}: traced {seen[what]}, expected {want}"
                for what, want in REFERENCE_COUNTS.items() if seen[what] != want]
    if tracer.missing:
        problems.append(f"hooks missing: {tracer.missing}")
    if not tracer.restored():
        problems.append("hooked functions were not restored")
    return problems


def check_benchmark_json() -> list[str]:
    problems = []
    per_layer = [m["name"] for m in run.SPEC["per_layer"]]
    if sorted(per_layer) != sorted(tracing.METRICS):
        problems.append("per_layer in BENCHMARK.json differs from tracer.METRICS")
    if sorted(w["name"] for w in run.SPEC["workloads"]) != sorted(run.joblist.WORKLOADS):
        problems.append("workloads in BENCHMARK.json differ from jobs.WORKLOADS")
    if not all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in per_layer):
        problems.append("a per_layer name breaks the naming rule")
    return problems


def main() -> int:
    status = 0
    for name, check in (("checker", check_checker), ("tracer", check_tracer),
                        ("BENCHMARK.json", check_benchmark_json)):
        problems = check()
        print(f"{name}: {'FAIL' if problems else 'PASS'}")
        for problem in problems:
            print(f"    {problem}")
        status |= bool(problems)
    return status
