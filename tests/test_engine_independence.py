"""The two engines share nothing but series arithmetic, read off the source.

test_periods.py forbids each engine the other's enumeration at run time,
which sees only the paths the catalog inputs take.  This guard reads the
package's call graph from its source with `ast`, so it covers every
path: the definitions reachable from the automorphic box scan and from
the spectral local factor may meet only in `SHARED`, and those reachable
from the two orbit contributions only in `ORBIT_SHARED`.

A reference is an edge: a name the module defines or imports from the
package, `Class.attr` for a package class, `self.attr` for a method of
its own class, and any other `x.attr` (a dunder aside) for every package
method or property of that name.  Annotations are not references.  A
shared definition is a leaf of the walk: what it calls is part of it.
"""

import ast
import shutil
from collections import deque
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "toricperiods"

# Series arithmetic (whole modules, the packed monomial keys included), the
# character's u-slopes, the two vector primitives and the run memo.
SHARED_MODULES = ("series", "cyclotomic")
SHARED = {"characters.Character.slopes", "intlinalg.vec", "intlinalg.dot",
          "periods._remembered"}

# The orbit contributions also share the face lattice (its lookup and the
# quotient maps sliced from it), the closure or image cone, the face sets,
# the one period formula with its certified input, the character's value
# (each side's prefactor reads it), grading shift and descent, and their
# result record.
ORBIT_SHARED = SHARED | {
    "cones.faces", "cones.FaceLattice.index", "cones.FaceLattice.span_quotient",
    "cones.FaceLattice.annihilator_quotient", "cones.Cone.ray_set", "cones.image_cone",
    "regularization._face_set", "periods.prefactored_period", "periods.certified",
    "characters.Character.value", "characters.Character.shift_u",
    "characters.Character.compose",
    "regularization.OrbitContribution"}

AUTOMORPHIC = "periods._box_scan"
SPECTRAL = "periods.spectral_local_factor"
POSITIVITY = "cones.check_grading"
ORBIT_AUTOMORPHIC = "regularization.regularized_automorphic_contribution"
ORBIT_SPECTRAL = "regularization.regularized_spectral_contribution"


def _body_nodes(node):
    """Every node under node's body, without annotations."""
    stack = list(node.body)
    while stack:
        child = stack.pop()
        yield child
        for field, value in ast.iter_fields(child):
            if field in ("annotation", "returns"):
                continue
            items = value if isinstance(value, list) else [value]
            stack.extend(item for item in items if isinstance(item, ast.AST))


class CallGraph:
    """Edges between the package's functions, methods and classes, by qualified name."""

    def __init__(self, root: Path):
        trees = {path.stem: ast.parse(path.read_text()) for path in sorted(root.glob("*.py"))}
        self.defs = {}   # "module.name" or "module.Class.name" -> (node, module, class)
        self.local = {}  # module -> {name bound at top level: qualified name}
        for module, tree in trees.items():
            names = self.local[module] = {}
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names[node.name] = f"{module}.{node.name}"
                    self.defs[names[node.name]] = (node, module, None)
                if isinstance(node, ast.ClassDef):
                    for sub in node.body:
                        if isinstance(sub, ast.FunctionDef):
                            self.defs[f"{module}.{node.name}.{sub.name}"] = (
                                sub, module, node.name)
        for module, tree in trees.items():
            for node in tree.body:
                if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                    for alias in node.names:
                        self.local[module][alias.asname or alias.name] = (
                            f"{node.module}.{alias.name}")
        self.by_attr = {}
        for name in self.defs:
            if name.count(".") == 2:
                self.by_attr.setdefault(name.rpartition(".")[2], set()).add(name)

    def _resolve(self, name):
        """The definition a module-level binding names, through re-imports; None if none."""
        while name is not None and name not in self.defs:
            module, _, attr = name.partition(".")
            name = self.local.get(module, {}).get(attr)
        return name

    def edges(self, name):
        node, module, owner = self.defs[name]
        if isinstance(node, ast.ClassDef):
            return {f"{name}.{m}" for m in ("__new__", "__init__")} & set(self.defs)
        out = set()
        for child in _body_nodes(node):
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                target = self._resolve(self.local[module].get(child.id))
                if target is not None:
                    out.add(target)
            elif isinstance(child, ast.Attribute):
                base = child.value.id if isinstance(child.value, ast.Name) else None
                if base in ("self", "cls") and owner is not None:
                    cls = f"{module}.{owner}"
                else:
                    cls = self._resolve(self.local[module].get(base))
                if cls is not None and isinstance(self.defs[cls][0], ast.ClassDef):
                    out |= {f"{cls}.{child.attr}"} & set(self.defs)
                elif not child.attr.startswith("__"):  # super().__init__ is not ours
                    out |= self.by_attr.get(child.attr, set())
        return out

    def reach(self, start, shared=SHARED):
        """start and every definition reachable from it; shared ones are not expanded."""
        seen = {start}
        queue = deque([start])
        while queue:
            name = queue.popleft()
            if name != start and is_shared(name, shared):
                continue
            for target in self.edges(name):
                if target not in seen:
                    seen.add(target)
                    queue.append(target)
        return seen


def is_shared(name, shared=SHARED):
    return name in shared or name.partition(".")[0] in SHARED_MODULES


def test_the_engines_reach_only_shared_definitions_in_common():
    graph = CallGraph(PACKAGE)
    assert SHARED <= set(graph.defs), f"stale SHARED entries: {SHARED - set(graph.defs)}"
    automorphic, spectral = graph.reach(AUTOMORPHIC), graph.reach(SPECTRAL)
    # Each walk reaches its own enumeration and the shared packing of its
    # points, so the guard is not vacuous; neither evaluates the character
    # point by point.
    packing = {"series.MonomialKeys.spanning", "series.MonomialKeys.keys",
               "series.TruncatedSeries.from_keys"}
    assert {"periods._weight_box", "periods._line"} | packing <= automorphic
    assert {"cones.monoid_points", "cones.points_at_level", "cones._level_box",
            "periods._level_sums"} | packing <= spectral
    assert "characters.Character.value" not in automorphic | spectral
    common = sorted(name for name in automorphic & spectral if not is_shared(name))
    assert not common, f"reached from both engines: {common}"


def test_the_positivity_check_is_reached_only_from_the_level_sets():
    # The box scan trusts its certified input; the spectral engine meets
    # the one positivity check where each level set bounds its slice.
    graph = CallGraph(PACKAGE)
    spectral = graph.reach(SPECTRAL)
    assert POSITIVITY not in graph.reach(AUTOMORPHIC)
    assert POSITIVITY in spectral
    callers = {name for name in spectral if POSITIVITY in graph.edges(name)}
    assert callers == {"cones.points_at_level"}


def _orbit_common(root):
    graph = CallGraph(root)
    automorphic = graph.reach(ORBIT_AUTOMORPHIC, ORBIT_SHARED)
    spectral = graph.reach(ORBIT_SPECTRAL, ORBIT_SHARED)
    return graph, automorphic, spectral, sorted(
        name for name in automorphic & spectral if not is_shared(name, ORBIT_SHARED))


def test_the_orbit_contributions_reach_only_shared_definitions_in_common():
    graph, automorphic, spectral, common = _orbit_common(PACKAGE)
    assert ORBIT_SHARED <= set(graph.defs), f"stale entries: {ORBIT_SHARED - set(graph.defs)}"
    assert {"periods._box_scan", "regularization._cuspidality_witness"} <= automorphic
    assert {"cones.points_at_level", "cones.dual_cone"} <= spectral
    assert not common, f"reached from both orbit contributions: {common}"


def test_the_orbit_guard_fails_a_spectral_contribution_fed_by_the_box_scan(tmp_path):
    root = tmp_path / "toricperiods"
    shutil.copytree(PACKAGE, root, ignore=shutil.ignore_patterns("__pycache__"))
    path = root / "regularization.py"
    source = path.read_text()
    assert source.count("spectral_local_factor, image,") == 1
    path.write_text(source.replace("spectral_local_factor, image,",
                                   "automorphic_local_factor, image,"))
    common = _orbit_common(root)[3]
    assert "periods._box_scan" in common
