"""Every def and class in src/toricperiods is referenced there; test-only helpers live in tests/oracles.py.

Every name a module of the package imports is used in that module;
`__init__.py` re-exports none by import, since it resolves its public names
on first use.

A function or class is referenced when the package names it outside its
own definition, a method when the package reads it as an attribute.  A
method name that several classes define cannot be told apart that way,
so such a method counts only when the package names it through its own
class (`Cyc.one`, or `self.one` inside `Cyc`) or when it runs while the
command line lists the catalog and emits and verifies every entry.  A
dunder is never named, so it counts only when it runs in that command
line run, and is keyed "Class.__name__".  A name the package exports in
`__all__` counts when the package references it or it runs in that
command line run; otherwise it sits on `ALLOWED`, naming the acceptance
test that calls it.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import toricperiods

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "toricperiods"

# Names that nothing in the package calls, and why they stay.  A dunder, or a
# method whose name another class also defines, is keyed "Class.method".
ALLOWED = {
    "failures": "method of the public ValidationReport record, read on reports",
    "vanished": "property of the public OrbitContribution record, read on orbit verdicts",
    "power": "TruncatedSeries.power, hooked by bench/tracer.py until the benchmark drops it",
    "inverse": "Cyc.inverse, hooked by bench/tracer.py until the benchmark drops it",
    "TruncatedSeries.__mul__": "hooked by bench/tracer.py and the tests' oracle for the "
                               "packed kernel and the monomial shift",
    "Cyc.__add__": "hooked by bench/tracer.py; `_zp_add_term` adds with it only when two "
                   "terms meet at one monomial, which no catalog run does",
    "Cyc.__mul__": "hooked by bench/tracer.py; `times_monomial` multiplies with it only "
                   "under a zeta prefactor, which no catalog run has",
    # Public names that only the acceptance suite calls.
    "hilbert_basis": "test_acceptance.py::test_criterion_04_cone_property_suite",
    "is_cuspidal": "test_acceptance.py::test_criterion_05_cuspidal_iff_generic",
    "is_generic": "test_acceptance.py::test_criterion_05_cuspidal_iff_generic",
    "toric_dual": "test_acceptance.py::test_criterion_01_tate_self_duality",
    "zeta_series": "test_acceptance.py::test_criterion_08_arithmetic_substrate",
    # Exceptions that only malformed input raises, which no catalog entry is.
    "NotStronglyConvex.__init__": "test_cones.py::test_make_cone_line_rejected",
    "InvalidSpin.__init__": "test_curve_characters.py::test_curve_rejects_bad_spin",
    "SchemaError.__init__": "test_scenario_cli.py::test_parse_rejects_missing_fields",
    # The package's names resolved on first use: `from toricperiods import <name>`
    # runs it, as the README's library example does; the command line never does.
    "None.__getattr__": "test_readme.py::test_readme_python_blocks_run",
}

# Run in a fresh process, so no cache that an earlier test filled hides a call.
PROFILE = r"""
import json, sys
from pathlib import Path
from toricperiods.cli import main
from toricperiods.scenario import catalog_names

package, out = sys.argv[1], Path(sys.argv[2])
codes = set()

def record(frame, event, arg):
    if event == "call":
        codes.add(frame.f_code)

sys.setprofile(record)
main(["catalog", "list"])
for name in catalog_names():
    scenario = out / f"{name}.json"
    main(["catalog", "emit", name, "--out", str(scenario)])
    main(["verify", str(scenario)])
sys.setprofile(None)
ran = sorted({(Path(c.co_filename).name, c.co_firstlineno)
              for c in codes if c.co_filename.startswith(package)})
(out / "ran.json").write_text(json.dumps(ran))
"""


def _definitions(node, owner=None):
    """(def or class node, name of the class it is a method of, or None) under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield child, owner
        yield from _definitions(child, child.name if isinstance(child, ast.ClassDef) else None)


def _ran_in_the_cli(tmp_path):
    """(module file name, first line) of every package function the CLI run calls."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", PROFILE, str(PACKAGE), str(tmp_path)],
                   check=True, env=env, stdout=subprocess.DEVNULL)
    return {tuple(x) for x in json.loads((tmp_path / "ran.json").read_text())}


def test_every_definition_is_referenced_in_the_package(tmp_path):
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    uses = {}  # name -> [(module, line, read as an attribute)]
    class_uses = {}  # (class, name) -> [(module, line)], read as Class.name, self.name or cls.name
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                uses.setdefault(node.id, []).append((module, node.lineno, False))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append((module, node.lineno, True))
                if isinstance(node.value, ast.Name):
                    class_uses.setdefault((node.value.id, node.attr), []).append(
                        (module, node.lineno))
            elif isinstance(node, ast.ClassDef):
                for sub in ast.walk(node):
                    if (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                            and sub.value.id in ("self", "cls")):
                        class_uses.setdefault((node.name, sub.attr), []).append(
                            (module, sub.lineno))
    methods = [(node.name, owner) for tree in trees.values()
               for node, owner in _definitions(tree) if owner]
    shared = {name for name, _ in methods
              if len({owner for n, owner in methods if n == name}) > 1}
    ran = _ran_in_the_cli(tmp_path)
    defined, dead = set(), []
    for module, tree in trees.items():
        for node, owner in _definitions(tree):
            name = node.name
            dunder = name.startswith("__") and name.endswith("__")
            key = f"{owner}.{name}" if name in shared or dunder else name
            defined.add(key)
            if key in ALLOWED:
                continue
            public = owner is None and name in toricperiods.__all__
            if name in shared or dunder or public:
                first = min([d.lineno for d in node.decorator_list] + [node.lineno])
                if (module, first) in ran:
                    continue
            if name in shared or dunder:
                used = [] if dunder else class_uses.get((owner, name), [])
            else:
                used = [(m, line) for m, line, attr in uses.get(name, []) if attr or not owner]
            if all(m == module and node.lineno <= line <= node.end_lineno for m, line in used):
                dead.append(f"{module}:{node.lineno} {key}")
    assert not dead, "defined in src/ but never referenced there: " + ", ".join(dead)
    assert set(ALLOWED) <= defined, f"allowed but no longer defined: {set(ALLOWED) - defined}"


def test_every_allowed_public_name_is_called_by_the_acceptance_test_it_names():
    tree = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text())
    tests = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in set(ALLOWED) & set(toricperiods.__all__):
        path, _, test = ALLOWED[name].partition("::")
        assert path == "test_acceptance.py" and test in tests, (name, ALLOWED[name])
        assert any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                   and node.func.id == name for node in ast.walk(tests[test])), (name, test)


def test_every_imported_name_is_used_in_its_module():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in loaded:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, "imported in src/ but never used there: " + ", ".join(unused)
