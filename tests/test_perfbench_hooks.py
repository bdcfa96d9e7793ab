"""The benchmark's tracer hooks must name qpshell attributes that exist.

perfbench/tracer.py swaps timing wrappers into module attributes listed in
its HOOKS table; a hook whose attribute was renamed away is skipped, and the
metrics that need it silently read null.  This test only reads that file.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# hooks whose targets are already gone; the benchmark repair will replace them
KNOWN_MISSING = {"qpshell.cli.solve_w_single", "qpshell.cli.solve_w_double"}


def _hooks():
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["HOOKS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("no HOOKS table in perfbench/tracer.py")


def test_every_hook_names_an_existing_attribute():
    hooks = _hooks()
    assert "_chain_segments" in hooks["qpshell.scattering"]
    missing = {f"{module}.{attr}" for module, attrs in hooks.items()
               for attr in attrs if not hasattr(importlib.import_module(module), attr)}
    assert missing == KNOWN_MISSING
