"""Every def and class in src/toricperiods is referenced there; test-only helpers live in tests/oracles.py.

A function or class is referenced when the package names it outside its
own definition, a method only when the package reads it as an attribute.
"""

import ast
from pathlib import Path

import toricperiods

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "toricperiods"

# Names that nothing in the package calls, and why they stay.
ALLOWED = {
    "failures": "method of the public ValidationReport record, read on reports",
    "vanished": "property of the public OrbitContribution record, read on orbit verdicts",
    # TruncatedSeries.__mul__ is hooked too; dunders are exempt anyway.
    "power": "TruncatedSeries.power, hooked by bench/tracer.py until the benchmark drops it",
    "inverse": "Cyc.inverse, hooked by bench/tracer.py until the benchmark drops it",
}


def _definitions(node, in_class=False):
    """(def or class node, whether it is a method) under node, nested ones included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield child, in_class
        yield from _definitions(child, isinstance(child, ast.ClassDef))


def test_every_definition_is_referenced_in_the_package():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    uses = {}  # name -> [(module, line, read as an attribute)]
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                uses.setdefault(node.id, []).append((module, node.lineno, False))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append((module, node.lineno, True))
    defined, dead = set(), []
    for module, tree in trees.items():
        for node, is_method in _definitions(tree):
            name = node.name
            defined.add(name)
            if (name.startswith("__") and name.endswith("__")
                    or name in toricperiods.__all__ or name in ALLOWED):
                continue
            if all(m == module and node.lineno <= line <= node.end_lineno
                   for m, line, attr in uses.get(name, []) if attr or not is_method):
                dead.append(f"{module}:{node.lineno} {name}")
    assert not dead, "defined in src/ but never referenced there: " + ", ".join(dead)
    assert set(ALLOWED) <= defined, "an allowed name is no longer defined"
