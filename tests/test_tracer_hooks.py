"""Every target in the benchmark tracer's HOOKS table is defined where the tracer looks for it.

`bench/tracer.py` resolves each hook as `vars(owner)[attr]`, so a hooked
method that moves off its class (into a base class, say) makes the
tracer fail at install time, in the benchmark's digest gate.  This test
reads the table from the tracer's source, imports nothing from bench/,
and fails in seconds instead.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _hook_targets():
    """(module, attribute path) of every HOOKS entry, read off the tracer's source."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["HOOKS"]:
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError(f"{TRACER} has no HOOKS table")


def test_every_hook_target_is_in_its_owners_namespace():
    targets = _hook_targets()
    assert ("cyclotomic", "Cyc.__mul__") in targets
    missing = []
    for module, path in targets:
        owner = importlib.import_module(f"toricperiods.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        if attr not in vars(owner):
            missing.append(f"{module}.{path}")
    assert not missing, "hooked but not defined on their owner: " + ", ".join(missing)
