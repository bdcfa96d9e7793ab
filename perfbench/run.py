"""qpshell benchmark: seeded CLI jobs run in-process, checked, optionally traced.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload rapidity_sweep --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --selftest

Each job is one `qpshell` argv handed to `qpshell.cli.main` with `--out` set
to a file under `.perfbench_work/`; argument parsing, the library call and
CSV writing all count toward the job.  One process, one thread, closed loop.

--trace 0 runs whole passes over the job list until the next pass would
overrun --seconds (at least two), then prints the end-to-end metrics.
--trace 1 runs one untraced and one traced pass and prints the per-layer
metrics.  Report lines start with '# '; the last line is the JSON result.
A job fails when it exits non-zero, raises, or its output fails a check
(`checks.py`); failed jobs are counted and listed by argv.  Only the typed
exits of `cli.main` (2: parameter error, 3: accuracy failure) leave the
result `correct`: any other exit, an exception that escapes `cli.main`, or a
failed output check makes it not correct, as does, with --trace 1, traced
output that differs from the untraced output.  The exit code is then 1.  It
is 2, with no result, when the checkout has no qpshell.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
if not os.path.isfile(os.path.join(SRC, "qpshell", "cli.py")):
    sys.stderr.write(f"no qpshell source under {SRC}; run from a checkout root\n")
    sys.exit(2)
sys.path.insert(0, SRC)

import numpy  # noqa: E402
import qpshell  # noqa: E402
from qpshell import cli  # noqa: E402

import checks  # noqa: E402
import jobs as joblist  # noqa: E402
import tracer as tracing  # noqa: E402

# metric names and units come from BENCHMARK.json, next to this directory
with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
TYPED_EXITS = (2, 3)   # cli.main's QpshellError exits: a refusal, not a wrong table
SETUP_STARTS = 11
MIN_PASSES = 2   # with 16 jobs or more per list, 32 job runs: the tail sits above the median
SETUP_CODE = ("import sys; sys.path.insert(0, 'src'); "
              "import qpshell.cli; qpshell.cli.build_parser()")


@contextlib.contextmanager
def workdir():
    """A scratch directory for job outputs, removed with its parent if empty."""
    os.makedirs(WORK, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=WORK) as path:
            yield path
    finally:
        try:
            os.rmdir(WORK)
        except OSError:
            pass


def _say(text: str) -> None:
    print("# " + text, flush=True)


def machine() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    source = hashlib.sha256()
    package = os.path.dirname(qpshell.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                source.update(name.encode() + fh.read())
    return (f"nproc={len(os.sched_getaffinity(0))} cpu={cpu!r} "
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"commit={commit or 'none'} source_sha={source.hexdigest()[:16]}")


def setup_start() -> float:
    """Wall time of a fresh interpreter that imports qpshell.cli and builds its parser."""
    t0 = time.perf_counter()
    # no timeout: with one, the wait polls in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, check=True)
    return time.perf_counter() - t0


def run_job(argv: list[str], out: str) -> tuple[str, bool] | None:
    """Run one job: None on success, else (why it failed, whether it was typed).

    Only cli.main's typed exit codes are typed failures; a crash, an
    argument error or any other exit code means the program is broken.
    """
    try:
        code = cli.main(argv + ["--out", out])
    except SystemExit as exc:
        return f"argument error (exit {exc.code})", False
    except Exception as exc:  # a job's crash is recorded, the run goes on
        return f"{type(exc).__name__}: {exc}", False
    if code == 0:
        return None
    return f"exit code {code}", code in TYPED_EXITS


class Pass:
    """One pass over the job list: per-job times, failures and output files.

    `between()` runs before each job, outside its timed section.
    """

    def __init__(self, jobs: list[list[str]], outdir: str, tracer=None, between=None):
        self.times = []
        self.errors = {}
        self.paths = [os.path.join(outdir, f"job{i:03d}.csv") for i in range(len(jobs))]
        t0 = time.perf_counter()
        for i, (argv, path) in enumerate(zip(jobs, self.paths)):
            if between is not None:
                between()
            if tracer is None:
                start = time.perf_counter_ns()
                error = run_job(argv, path)
                self.times.append(time.perf_counter_ns() - start)
            else:
                error = tracer.job(i, lambda: run_job(argv, path))
            if error:
                self.errors[i] = error
        self.wall = time.perf_counter() - t0

    def outputs(self) -> list[bytes]:
        texts = []
        for path in self.paths:
            try:
                with open(path, "rb") as fh:
                    texts.append(fh.read())
            except FileNotFoundError:
                texts.append(b"")
        return texts


def check_outputs(jobs, outputs, errors: dict) -> tuple[dict, dict]:
    """Failed jobs (index -> messages), and among them the wrong ones.

    `errors` maps a job to (message, typed) from `run_job`.  A job with a
    typed failure has failed but wrote no table to check.  A job that
    crashed, or whose output fails a check, has failed and is wrong.
    """
    wrong = {i: [message] for i, (message, typed) in errors.items() if not typed}
    for i, (argv, data) in enumerate(zip(jobs, outputs)):
        if i not in errors:
            problems = checks.check_job(argv, data.decode("utf-8"))
            if problems:
                wrong[i] = problems
    return {**{i: [message] for i, (message, _) in errors.items()}, **wrong}, wrong


def digest(outputs: list[bytes]) -> str:
    h = hashlib.sha256()
    for data in outputs:
        h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest()[:16]


def data_rows(jobs, outputs) -> tuple[int, int]:
    """CSV data rows over all jobs, and those that are bound levels."""
    rows = levels = 0
    for argv, data in zip(jobs, outputs):
        n = max(data.count(b"\n") - 2, 0)
        rows += n
        if "--levels" in argv:
            levels += n
    return rows, levels


def tail(values: list[float], basis: int) -> tuple[float, float]:
    """The tail percentile and its value over `values`.

    The percentile is the highest one with ten runs above it in `basis`
    runs, the fewest a run makes.  Fixing it there, instead of at the highest
    percentile with ten runs above it in all `values`, keeps it from moving
    with how many passes fit into a run: that depends on the speed of the
    machine, and of the program under test.
    """
    ordered = sorted(values)
    share = (basis - 10) / basis
    k = max(math.ceil(share * len(ordered)) - 1, 0)
    return 100.0 * share, ordered[k]


def report_failures(jobs, failed: dict) -> None:
    for i, problems in sorted(failed.items()):
        _say(f"FAILED job {i}: qpshell {' '.join(jobs[i])}")
        for problem in problems[:5]:
            _say(f"    {problem}")


def end_to_end(jobs, seconds: float, outdir: str):
    setup_start()   # unmeasured: the first start may still be writing bytecode caches
    setup = []
    passes = []
    t0 = time.perf_counter()

    def between():
        # the interpreter starts are spread over the run, so that one noisy
        # moment of the machine cannot skew them all
        if (len(setup) < SETUP_STARTS
                and time.perf_counter() - t0 >= len(setup) * seconds / SETUP_STARTS):
            setup.append(setup_start())

    while True:
        passes.append(Pass(jobs, outdir, between=between))
        elapsed = time.perf_counter() - t0
        if len(passes) >= MIN_PASSES and elapsed + passes[-1].wall > seconds:
            break
    while len(setup) < SETUP_STARTS:   # passes ran long: take the rest now
        setup.append(setup_start())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outputs = passes[-1].outputs()
    errors = {}
    for p in passes:
        errors.update(p.errors)
    failed, wrong = check_outputs(jobs, outputs, errors)
    job_ms = [ns / 1e6 for p in passes for ns in p.times]
    pct, tail_ms = tail(job_ms, MIN_PASSES * len(jobs))
    _say(f"passes={len(passes)} run_s={elapsed:.3f} job_s={sum(job_ms) / 1e3:.3f} "
         f"csv_sha={digest(outputs)} job_tail=p{pct:.2f} of {len(job_ms)} job runs "
         f"setup_starts={len(setup)} failed_ratio={len(failed) / len(jobs):.4f}")
    report_failures(jobs, failed)
    values = {
        "jobs_per_s": len(job_ms) / (sum(job_ms) / 1e3),
        "job_p50_ms": statistics.median(job_ms),
        "job_tail_ms": tail_ms,
        "ok_ratio": 1.0 - len(failed) / len(jobs),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in SPEC["end_to_end"]}
    return metrics, failed, not wrong


def per_layer(jobs, outdir: str):
    for sub in ("plain", "traced"):
        os.makedirs(os.path.join(outdir, sub))
    plain = Pass(jobs, os.path.join(outdir, "plain"))
    plain_out = plain.outputs()
    failed, wrong = check_outputs(jobs, plain_out, plain.errors)
    tracer = tracing.Tracer()
    with tracer:
        traced = Pass(jobs, os.path.join(outdir, "traced"), tracer)
    restored = tracer.restored()
    traced_out = traced.outputs()
    same = digest(traced_out) == digest(plain_out)
    rows, levels = data_rows(jobs, plain_out)
    _say(f"untraced_s={plain.wall:.3f} traced_s={traced.wall:.3f} "
         f"csv_sha={digest(plain_out)} traced_csv_sha={digest(traced_out)} "
         f"rows={rows} level_rows={levels} spans={len(tracer.spans)} "
         f"hooks_restored={restored}")
    for hook in tracer.missing:
        _say(f"hook missing: {hook}")
    report_failures(jobs, failed)
    metrics = tracing.summarize(tracer, rows, levels, traced.wall / plain.wall,
                                {m["name"]: m["unit"] for m in SPEC["per_layer"]})
    return metrics, failed, same and restored and not wrong


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(joblist.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="prove the checker can fail and the tracer counts exactly")
    args = parser.parse_args()
    if args.selftest:
        import selftest
        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")

    jobs = joblist.make_jobs(args.workload, args.seed)
    _say(f"workload={args.workload} seed={args.seed} jobs={len(jobs)} "
         f"job_list_sha={joblist.jobs_digest(jobs)} trace={args.trace}")
    _say(machine())
    with workdir() as outdir:
        if args.trace:
            metrics, failed, correct = per_layer(jobs, outdir)
        else:
            metrics, failed, correct = end_to_end(jobs, args.seconds, outdir)
    for name, metric in metrics.items():
        if "reason" in metric:
            _say(f"{name}: {metric['reason']}")
    result = {
        "correct": correct,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
