"""Mutation checks: each mutant of the package must fail the tests named for it.

Run from anywhere, with pytest and Hypothesis installed:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named mutants only

Each mutant is a list of edits, (file, snippet, replacement), and the
test node ids expected to kill it.  The harness copies the repository's
`src/`, `tests/`, `bench/`, `README.md` and `pyproject.toml` into a
temporary directory, checks that every snippet occurs there exactly once
(a snippet that no longer matches fails the harness by name), requires
the named tests to pass unmutated, then applies each mutant in turn and
requires its tests to fail.  pytest runs inside the copy with its cache
and bytecode off, so nothing is written into the checkout.  Exit status:
0 every mutant killed, 1 otherwise.

A mutant may be re-aimed when its code moves; removing one needs a line
in CHANGES.md that names it and says why.  pytest does not collect this
file (it is not named test_*.py), so Tier-1 does not run it.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "bench", "README.md", "pyproject.toml")
# Seconds for one pytest run; a mutant that makes its tests hang is not killed.
TIMEOUT = 300

Mutant = namedtuple("Mutant", "name edits tests")

REG = "src/toricperiods/regularization.py"
PERIODS = "src/toricperiods/periods.py"
STACKS = "src/toricperiods/stacks.py"
SERIES = "src/toricperiods/series.py"
CURVE = "src/toricperiods/curve.py"
SCENARIO = "src/toricperiods/scenario.py"

MUTANTS = (
    Mutant("cuspidality-counts-the-whole-cone",
           [(REG, "if rays < g.ray_set() and g.rays != cone.rays), None)",
             "if rays < g.ray_set()), None)")],
           ["tests/test_regularization.py::test_cuspidal_tate_vacuous"]),
    Mutant("domination-not-strict",
           [(REG, "if any(g.ray_set() < face.ray_set() for g in fixed):",
             "if any(g.ray_set() <= face.ray_set() for g in fixed):")],
           ["tests/test_regularization.py::test_full_face_recovers_spectral_period"]),
    Mutant("stabilized-set-off-the-annihilator",
           [(REG, "sublattice = lattice.span if kind == \"stabilized\" else lattice.annihilator",
             "sublattice = lattice.annihilator")],
           ["tests/test_regularization.py::test_cuspidal_fails_with_monomial_cancellation"]),
    Mutant("box-scan-calls-monoid-points",
           [(PERIODS, "    w = psi.slopes\n    bound = order // deg\n",
             "    w = psi.slopes\n    bound = order // deg\n    monoid_points(cone, w, 0)\n")],
           ["tests/test_engine_independence.py"
            "::test_the_engines_reach_only_shared_definitions_in_common"]),
    Mutant("lift-twist-sign-flipped",
           [(STACKS, "return tuple(x % n for x in s)",
             "return tuple(-x % n for x in s)")],
           ["tests/test_stacks.py::test_automorphism_maps_the_source_onto_the_target"]),
    Mutant("lift-sum-drops-the-identity",
           [(STACKS, "for j in range(i, len(lifts)):", "for j in range(i + 1, len(lifts)):")],
           ["tests/test_stacks.py::test_lift_sums_against_one_period_per_lift"]),
    Mutant("lift-sum-keeps-every-term",
           [(STACKS, "if all(dot(s, z) % n == 0 for s in shifts)}", "}")],
           ["tests/test_stacks.py::test_lift_sums_against_one_period_per_lift"]),
    Mutant("box-scan-drops-a-facet-cut",
           [(PERIODS, "cuts = [(f[:-1], f[-1], 0) for f in cone.facets]",
             "cuts = [(f[:-1], f[-1], 0) for f in cone.facets[1:]]")],
           ["tests/test_periods.py::test_engine_independence_catalog"]),
    Mutant("weight-box-floors-the-low-end",
           [(PERIODS, "return [-(-x // den) for x in lo], [x // den for x in hi]",
             "return [x // den for x in lo], [x // den for x in hi]")],
           ["tests/test_periods.py::test_weight_box_against_the_fraction_oracle"]),
    Mutant("level-box-one-level-short",
           [("src/toricperiods/cones.py", "lo, hi = _level_box(c.rays, weights, m, n)",
             "lo, hi = _level_box(c.rays, weights, m - 1, n)")],
           ["tests/test_cones.py::test_points_at_level_brute_force_box"]),
    Mutant("root-field-is-n",
           [(PERIODS, "return psi.order // math.gcd(psi.order, *(m.zeta for m in psi.coords))",
             "return psi.order")],
           ["tests/test_periods.py"
            "::test_automorphic_period_asks_for_every_class_up_to_the_truncation"]),
    Mutant("euler-memo-key-without-field",
           [(PERIODS, "_remembered(\"euler\", (factors, counts, field), packed)",
             "_remembered(\"euler\", (factors, counts), packed)")],
           ["tests/test_euler_memo.py::test_memo_key_holds_the_field"]),
    Mutant("exp-skips-the-division-by-n",
           [(SERIES, "self.combine(products, n)",
             "self.combine(products, 1)")],
           ["tests/test_euler_kernel.py::test_zeta_series_matches_binary_powering"]),
    Mutant("faces-by-closure-drop-a-facet",
           [("src/toricperiods/cones.py",
             "facet_rays = [frozenset(r for r in c.rays if dot(f, r) == 0) for f in c.facets]",
             "facet_rays = [frozenset(r for r in c.rays if dot(f, r) == 0) for f in c.facets[1:]]")],
           ["tests/test_cones.py::test_faces_counts"]),
    Mutant("box-scan-keeps-the-origin",
           [(PERIODS, "lines += [_line(0, step, first, 0), _line(0, step, 1, last + 1)]",
             "lines.append(_line(0, step, first, last + 1))")],
           ["tests/test_monomial_keys.py::test_both_engines_match_the_point_by_point_oracle"]),
    Mutant("monomial-keys-half-width-one-short",
           [(SERIES, "halves = [deg * sum(r * abs(m.z[i]) for m, r in pairs) for i",
             "halves = [max(deg * sum(r * abs(m.z[i]) for m, r in pairs) - 1, 0) for i")],
           ["tests/test_monomial_keys.py::test_digits_at_the_half_widths"]),
    Mutant("adams-index-is-one",
           [(PERIODS, "return g, d // g, k", "return g, d // g, 1")],
           ["tests/test_adams_scans.py::test_smooth_cone_euler_product_closed_form[12-specs3-tate]"]),
    Mutant("place-counts-of-the-affine-line",
           [(CURVE, "return self.q ** n + 1", "return self.q ** n")],
           ["tests/test_zeta_products.py::test_catalog_periods_are_zeta_products[tate]"]),
    Mutant("place-counts-drop-degree-one",
           [(CURVE, "for e in range(1, d) if d % e == 0)",
             "for e in range(2, d) if d % e == 0)")],
           ["tests/test_curve_characters.py::test_place_counts_q2",
            "tests/test_curve_characters.py::test_place_counts_match_mobius_inversion"]),
    Mutant("spectral-prefactor-sign-flipped",
           [(PERIODS, "shift = (1 - curve.genus) * (epsilon - datum_check.rank)",
             "shift = (1 - curve.genus) * (datum_check.rank - epsilon)")],
           ["tests/test_zeta_products.py"
            "::test_catalog_periods_are_zeta_products[quadric_cone_eta21]"]),
    Mutant("times-monomial-zero-branch-keeps-trunc",
           [(SERIES, "            trunc = min(self.trunc + du, EXACT)\n",
             "            trunc = self.trunc\n")],
           ["tests/test_series.py::test_times_monomial_claims_only_what_the_input_fixes"]),
    Mutant("first-mismatch-skips-the-last-exact-row",
           [(SERIES, "top = min(self.trunc, other.trunc)\n",
             "top = min(self.trunc, other.trunc) - 1\n")],
           ["tests/test_series.py::test_first_mismatch_compares_up_to_the_smaller_trunc"]),
    Mutant("scenario-rank-may-be-zero",
           [(SCENARIO, "_where(lambda n: n >= 1, \"rank must be >= 1\")",
             "_where(lambda n: n >= 0, \"rank must be >= 1\")")],
           ["tests/test_scenario_cli.py::test_schema_sweep_pins_every_message"]),
    Mutant("scenario-unknown-field-accepted",
           [(SCENARIO, "        for key in value:\n            if key not in keys:\n"
                       "                raise SchemaError(f\"{pointer}.{key}\", "
                       "\"unknown field\")\n", "")],
           ["tests/test_scenario_cli.py::test_unknown_field_is_schema_error"]),
    Mutant("dead-code-guard-is-cuspidal-off-allowed",
           [("tests/test_no_dead_code.py",
             "    \"is_cuspidal\": \"test_acceptance.py::test_criterion_05_cuspidal_iff_generic\",\n",
             "")],
           ["tests/test_no_dead_code.py::test_every_definition_is_referenced_in_the_package"]),
    Mutant("dead-code-guard-unused-public-function",
           [(REG, "def is_generic(", "def unused_helper():\n    return None\n\n\ndef is_generic("),
            ("src/toricperiods/__init__.py", "(\"is_cuspidal\", \"is_generic\", ",
             "(\"is_cuspidal\", \"is_generic\", \"unused_helper\", ")],
           ["tests/test_no_dead_code.py::test_every_definition_is_referenced_in_the_package"]),
)


def _copy(root: Path):
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        source = REPO / name
        if source.is_dir():
            shutil.copytree(source, root / name, ignore=ignore)
        else:
            shutil.copy2(source, root / name)


def _pytest(root: Path, tests) -> int | str:
    """pytest's exit status on the named tests, run inside the copy, or "timeout"."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        return "timeout"


def _stale(root: Path, mutant) -> list[str]:
    """The edits of the mutant whose snippet does not occur exactly once."""
    return [f"{path}: {old!r} occurs {(root / path).read_text().count(old)} times"
            for path, old, _ in mutant.edits if (root / path).read_text().count(old) != 1]


def _run(root: Path, mutant) -> int:
    originals = {}
    try:
        for path, old, new in mutant.edits:
            text = (root / path).read_text()
            originals.setdefault(path, text)
            (root / path).write_text(text.replace(old, new))
        return _pytest(root, mutant.tests)
    finally:
        for path, text in originals.items():
            (root / path).write_text(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"no such mutant: {', '.join(sorted(unknown))}")
    selected = [m for m in MUTANTS if not args.names or m.name in args.names]
    with tempfile.TemporaryDirectory(prefix="toricperiods-mutants-") as tmp:
        root = Path(tmp)
        _copy(root)
        stale = {m.name: problems for m in selected if (problems := _stale(root, m))}
        for name, problems in stale.items():
            print(f"STALE    {name}: " + "; ".join(problems))
        if stale:
            return 1
        tests = sorted({t for m in selected for t in m.tests})
        if _pytest(root, tests) != 0:
            print("the named tests do not pass unmutated: " + " ".join(tests))
            return 1
        survived = []
        for mutant in selected:
            status = _run(root, mutant)
            # 1: a test failed; 2: collection failed.  Anything else (no test
            # collected, a usage error, a hang) is not a kill.
            killed = status in (1, 2)
            print(f"{'killed' if killed else 'SURVIVED':8s} {mutant.name} (pytest exit {status})")
            if not killed:
                survived.append(mutant.name)
    print(f"{len(selected) - len(survived)} of {len(selected)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
