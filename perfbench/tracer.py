"""Outside-in tracing of qpshell: wrappers swapped into module attributes.

Callers inside qpshell look their collaborators up by module attribute at
call time, so replacing those attributes with timing wrappers sees every
call without editing a source file.  `Tracer.install` saves each original,
`Tracer.uninstall` puts it back.

Calls above the kernels become spans (name, start, end, parent span, job id).
Kernel-level calls, which run up to a million times per job, are folded into
one (count, inclusive ns, self ns) cell per (parent span, name) so memory
stays bounded.  Self time is a frame's duration minus its traced children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

# module -> attribute names that callers look up at call time
HOOKS = {
    "qpshell.greens": ("green_line", "green_line_bound", "k_factor", "k_factor_bound"),
    "qpshell.scattering": ("green_partial", "k_factor", "delta_system", "scatter_point",
                           "_zero_condition_raw", "_refine_edge_zero", "_chain_segments"),
    "qpshell.boundstates": ("green_partial_bound", "det_bound", "bound_wavefunction",
                            "find_roots_scan", "integrate_semi_infinite"),
    "qpshell.numerics": ("integrate_adaptive",),
    "qpshell.cli": ("sweep", "scan_zero_locus", "solve_w_single", "solve_w_double",
                    "bound_wavefunction", "integrate_semi_infinite", "sample_v0_curve",
                    "sample_det_curve", "sample_v2_curve", "sample_v1pm_curve"),
}
KERNELS = {"green_line", "green_line_bound", "green_partial", "green_partial_bound",
           "k_factor", "k_factor_bound", "_zero_condition_raw", "det_bound"}

JOB = "cli.main"
# closures that qpshell passes into numerics; timed as frames of their own so
# their cost lands in the layer that wrote them, not in the numerics routine
ROOT_F = "boundstates.det_of_w"
QUAD_F = "boundstates.integrand"

_now = time.perf_counter_ns


def _label(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, job, self_ns]
        self.cells = defaultdict(lambda: [0, 0, 0])   # (parent, name) -> [n, incl, self]
        self.counts = defaultdict(int)
        self.missing = []        # "module.attr" hooks that no longer exist
        self.hooked = []         # (module, attr, original), kept after uninstall
        self._stack = []         # open frames: [child_ns, span index or None]
        self._span = None        # innermost open span
        self._job = None

    # -- frames ---------------------------------------------------------------

    def _kernel(self, name, fn, args, kwargs):
        frame = [0, None]
        self._stack.append(frame)
        t0 = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = _now() - t0
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += dt
            cell = self.cells[(self._span, name)]
            cell[0] += 1
            cell[1] += dt
            cell[2] += dt - frame[0]

    def _open_span(self, name):
        index = len(self.spans)
        self.spans.append([name, 0, 0, self._span, self._job, 0])
        self._stack.append([0, index])
        self._span = index
        self.spans[index][1] = _now()
        return index

    def _close_span(self, index):
        end = _now()
        span = self.spans[index]
        child_ns, _ = self._stack.pop()
        span[2] = end
        span[5] = end - span[1] - child_ns
        if self._stack:
            self._stack[-1][0] += end - span[1]
        self._span = span[3]

    def job(self, job_id, run):
        """Run one job, `run()`, as the root span of its trace."""
        self._job = job_id
        index = self._open_span(JOB)
        try:
            return run()
        finally:
            self._close_span(index)
            self._job = None

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn):
        name = _label(fn)
        if fn.__name__ in KERNELS:
            def wrapper(*args, **kwargs):
                return self._kernel(name, fn, args, kwargs)
        elif fn.__name__ == "find_roots_scan":
            wrapper = self._wrap_roots(fn, name)
        elif fn.__name__ == "integrate_adaptive":
            wrapper = self._wrap_quad(fn, name)
        else:
            def wrapper(*args, **kwargs):
                index = self._open_span(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close_span(index)
                self._count_result(name, result)
                return result
        return functools.wraps(fn)(wrapper)

    def _count_result(self, name, result):
        if name == "scattering.scan_zero_locus":
            self.counts["locus.vertices"] += sum(len(c) for c in result.curves)
        elif name.startswith("boundstates.sample_"):
            points = sum(map(len, result)) if name.endswith("v1pm_curve") else len(result)
            self.counts["sample.points"] += points

    def _wrap_roots(self, fn, name):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            f = bound.arguments["f"]
            n_grid = bound.arguments["n_scan"] + 1
            grid = []

            def counted(x):
                if len(grid) < n_grid:
                    value = self._kernel(ROOT_F, f, (x,), {})
                    grid.append(value)
                    return value
                self.counts["roots.bisect_evals"] += 1
                return self._kernel(ROOT_F, f, (x,), {})

            bound.arguments["f"] = counted
            index = self._open_span(name)
            try:
                roots = fn(*bound.args, **bound.kwargs)
            finally:
                self._close_span(index)
            self.counts["roots.grid_evals"] += len(grid)
            self.counts["roots.brackets"] += sum(
                1 for a, b in zip(grid, grid[1:]) if a != 0.0 and b != 0.0 and (a > 0) != (b > 0))
            self.counts["roots.found"] += len(roots)
            return roots
        return wrapper

    def _wrap_quad(self, fn, name):
        def wrapper(f, *args, **kwargs):
            def integrand(x):
                return self._kernel(QUAD_F, f, (x,), {})

            index = self._open_span(name)
            try:
                result = fn(integrand, *args, **kwargs)
            finally:
                self._close_span(index)
            self.counts["quad.evals"] += result.evaluations
            return result
        return wrapper

    # -- install / restore ----------------------------------------------------

    def install(self):
        for module_name, attrs in HOOKS.items():
            module = importlib.import_module(module_name)
            for attr in attrs:
                fn = getattr(module, attr, None)
                # the root-scan counts need to know which calls are the grid
                if fn is None or (attr == "find_roots_scan" and not {"f", "n_scan"} <= set(
                        inspect.signature(fn).parameters)):
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                self.hooked.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn))

    def uninstall(self):
        for module, attr, fn in reversed(self.hooked):
            setattr(module, attr, fn)

    def restored(self) -> bool:
        return all(getattr(module, attr) is fn for module, attr, fn in self.hooked)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# metric -> hooks it needs; BENCHMARK.json gives units, README.md what each should move
METRICS = {
    "kinematics.k_factor.calls_per_row": ("greens.k_factor", "greens.k_factor_bound"),
    "greens.green_line.calls_per_row": ("greens.green_line",),
    "greens.green_line.ns_per_call": ("greens.green_line",),
    "greens.green_line_bound.calls_per_row": ("greens.green_line_bound",),
    "greens.green_line_bound.ns_per_call": ("greens.green_line_bound",),
    "greens.self_share":
        ("greens.green_line", "greens.green_line_bound", "scattering.green_partial",
         "boundstates.green_partial_bound"),
    "scattering.delta_system.calls_per_row": ("scattering.delta_system",),
    "scattering.delta_system.self_share": ("scattering.delta_system",),
    "scattering.scatter_point.self_share": ("scattering.scatter_point",),
    "scattering.sweep.self_share": ("cli.sweep",),
    "scattering.locus.field_share": ("cli.scan_zero_locus", "scattering._zero_condition_raw"),
    "scattering.locus.refine_share": ("scattering._refine_edge_zero",),
    "scattering.locus.chain_share": ("scattering._chain_segments",),
    "scattering.locus.refine_evals_per_vertex":
        ("scattering._refine_edge_zero", "scattering._zero_condition_raw"),
    "scattering.locus.vertices": ("cli.scan_zero_locus",),
    "boundstates.det_bound.calls": ("boundstates.det_bound",),
    "boundstates.det_bound.self_share": ("boundstates.det_bound",),
    "boundstates.bound_wavefunction.calls_per_level":
        ("boundstates.bound_wavefunction", "cli.bound_wavefunction"),
    "boundstates.sample.us_per_point":
        ("cli.sample_v0_curve", "cli.sample_det_curve", "cli.sample_v2_curve",
         "cli.sample_v1pm_curve"),
    "numerics.find_roots_scan.f_evals": ("boundstates.find_roots_scan",),
    "numerics.find_roots_scan.bisect_evals_per_bracket": ("boundstates.find_roots_scan",),
    "numerics.find_roots_scan.bracket_yield": ("boundstates.find_roots_scan",),
    "numerics.find_roots_scan.self_share": ("boundstates.find_roots_scan",),
    "numerics.quad.calls_per_level": ("numerics.integrate_adaptive",),
    "numerics.quad.evals_per_call": ("numerics.integrate_adaptive",),
    "numerics.quad.self_share":
        ("numerics.integrate_adaptive", "boundstates.integrate_semi_infinite",
         "cli.integrate_semi_infinite"),
    "cli.self_share": (),
    "cli.us_per_row": (),
    "trace.overhead_ratio": (),
}


def _ratio(num, den):
    return num / den if den else 0.0


def summarize(tracer: Tracer, rows: int, levels: int, overhead_ratio: float,
              units: dict) -> dict:
    """Per-layer metrics by name, as {"value", "unit"} plus "reason" if unmeasured.

    Shares are of the summed wall time of all traced jobs; a metric whose
    layer the workload never enters reads 0.
    """
    calls = defaultdict(int)
    incl = defaultdict(int)
    self_ns = defaultdict(int)
    for name, start, end, _parent, _job, own in tracer.spans:
        calls[name] += 1
        incl[name] += end - start
        self_ns[name] += own
    under = defaultdict(int)   # (parent span name, kernel name) -> calls
    under_ns = defaultdict(int)
    for (parent, name), (n, ns, own) in tracer.cells.items():
        calls[name] += n
        incl[name] += ns
        self_ns[name] += own
        parent_name = tracer.spans[parent][0] if parent is not None else None
        under[(parent_name, name)] += n
        under_ns[(parent_name, name)] += ns

    total = incl[JOB]
    greens_self = sum(ns for name, ns in self_ns.items() if name.startswith("greens."))
    counts = tracer.counts
    cond = "scattering._zero_condition_raw"
    refine = "scattering._refine_edge_zero"
    brackets = counts["roots.brackets"]
    quad_calls = calls["numerics.integrate_adaptive"]
    values = {
        "kinematics.k_factor.calls_per_row":
            _ratio(calls["kinematics.k_factor"] + calls["kinematics.k_factor_bound"], rows),
        "greens.green_line.calls_per_row": _ratio(calls["greens.green_line"], rows),
        "greens.green_line.ns_per_call":
            _ratio(incl["greens.green_line"], calls["greens.green_line"]),
        "greens.green_line_bound.calls_per_row": _ratio(calls["greens.green_line_bound"], rows),
        "greens.green_line_bound.ns_per_call":
            _ratio(incl["greens.green_line_bound"], calls["greens.green_line_bound"]),
        "greens.self_share": _ratio(greens_self, total),
        "scattering.delta_system.calls_per_row": _ratio(calls["scattering.delta_system"], rows),
        "scattering.delta_system.self_share": _ratio(self_ns["scattering.delta_system"], total),
        "scattering.scatter_point.self_share": _ratio(self_ns["scattering.scatter_point"], total),
        "scattering.sweep.self_share": _ratio(self_ns["scattering.sweep"], total),
        "scattering.locus.field_share":
            _ratio(under_ns[("scattering.scan_zero_locus", cond)], total),
        "scattering.locus.refine_share": _ratio(incl[refine], total),
        "scattering.locus.chain_share": _ratio(incl["scattering._chain_segments"], total),
        "scattering.locus.refine_evals_per_vertex": _ratio(under[(refine, cond)], calls[refine]),
        "scattering.locus.vertices": counts["locus.vertices"],
        "boundstates.det_bound.calls": calls["boundstates.det_bound"],
        "boundstates.det_bound.self_share": _ratio(self_ns["boundstates.det_bound"], total),
        "boundstates.bound_wavefunction.calls_per_level":
            _ratio(calls["boundstates.bound_wavefunction"], levels),
        "boundstates.sample.us_per_point": _ratio(
            sum(ns for name, ns in incl.items() if name.startswith("boundstates.sample_")),
            counts["sample.points"]) / 1e3,
        "numerics.find_roots_scan.f_evals":
            counts["roots.grid_evals"] + counts["roots.bisect_evals"],
        "numerics.find_roots_scan.bisect_evals_per_bracket":
            _ratio(counts["roots.bisect_evals"], brackets),
        "numerics.find_roots_scan.bracket_yield": _ratio(counts["roots.found"], brackets),
        "numerics.find_roots_scan.self_share":
            _ratio(self_ns["numerics.find_roots_scan"], total),
        "numerics.quad.calls_per_level": _ratio(quad_calls, levels),
        "numerics.quad.evals_per_call": _ratio(counts["quad.evals"], quad_calls),
        "numerics.quad.self_share": _ratio(
            self_ns["numerics.integrate_adaptive"] + self_ns["numerics.integrate_semi_infinite"],
            total),
        "cli.self_share": _ratio(self_ns[JOB], total),
        "cli.us_per_row": _ratio(self_ns[JOB], rows) / 1e3,
        "trace.overhead_ratio": overhead_ratio,
    }
    out = {}
    for name, needs in METRICS.items():
        unit = units[name]
        out[name] = {"value": values[name], "unit": unit}
        gone = [hook for hook in needs if f"qpshell.{hook}" in tracer.missing]
        if gone:
            out[name] = {"value": None, "unit": unit,
                         "reason": "not measured: hook " + ", ".join(gone) + " is gone"}
    return out
