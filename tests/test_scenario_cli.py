import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from toricperiods.cli import main
from toricperiods.scenario import (
    SchemaError,
    catalog_emit,
    catalog_names,
    parse_scenario,
    report_to_json,
    run_scenario,
)


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def test_catalog_names():
    names = catalog_names()
    assert len(names) >= 6
    for expected in ("tate", "orthant_a2", "quadric_cone", "square_cone_3d",
                     "weight_n_stack", "height_p1"):
        assert expected in names


def test_catalog_emit_overrides():
    data = catalog_emit("tate", q=5, order=4)
    assert data["curve"]["q"] == 5
    assert data["truncation"] == 4
    stack = catalog_emit("weight_n_stack", n=2)
    assert stack["isogeny"]["inclusion"] == [[2]]
    assert stack["curve"]["q"] == 3
    stack3 = catalog_emit("weight_n_stack", n=3)
    assert stack3["curve"]["q"] == 4
    for n in range(1, 13):
        # q = n + 1 is no prime power at n = 5, 9, 11: the default moves on.
        stack_n = catalog_emit("weight_n_stack", n=n)
        assert parse_scenario(stack_n).curve.q % n == 1 % n
    with pytest.raises(KeyError):
        catalog_emit("unknown-name")


BENCH_SCENARIOS = Path(__file__).resolve().parents[1] / "bench" / "scenarios"

# Each committed bench scenario file and the catalog call that emits it.
CATALOG_FILES = {
    "height_p1": ("height_p1", {}),
    "orthant_a2": ("orthant_a2", {}),
    "quadric_cone": ("quadric_cone", {}),
    "quadric_cone_eta21": ("quadric_cone_eta21", {}),
    "quadric_cone_q5_u14": ("quadric_cone", {"q": 5, "order": 14}),
    "square_cone_3d": ("square_cone_3d", {}),
    "tate": ("tate", {}),
    "weight_12_stack_q13_u10": ("weight_n_stack", {"n": 12, "q": 13, "order": 10}),
    "weight_2_stack": ("weight_n_stack", {"n": 2}),
    "weight_3_stack": ("weight_n_stack", {"n": 3}),
    "weight_7_stack_q8_u14": ("weight_n_stack", {"n": 7, "q": 8, "order": 14}),
}


def test_catalog_pinned_by_the_bench_scenarios():
    assert sorted(CATALOG_FILES) == sorted(p.stem for p in BENCH_SCENARIOS.glob("*.json"))
    for stem, (name, kwargs) in CATALOG_FILES.items():
        text = json.dumps(catalog_emit(name, **kwargs), sort_keys=True, indent=1) + "\n"
        assert text == (BENCH_SCENARIOS / f"{stem}.json").read_text(encoding="utf-8"), stem


def test_catalog_emit_returns_a_fresh_dict():
    # The caller may change what it gets; the next call is unchanged.
    for name in catalog_names():
        before = json.dumps(catalog_emit(name), sort_keys=True)
        data = catalog_emit(name)
        data["curve"]["q"] = 99
        data["rays"][0].append(7)
        data["characters"][0]["coords"][0] = {"zeta": 1, "u": 1}
        data["checks"].clear()
        assert json.dumps(catalog_emit(name), sort_keys=True) == before


def test_parse_rejects_missing_fields():
    with pytest.raises(SchemaError) as err:
        parse_scenario({"name": "x"})
    assert "rank" in str(err.value)


def test_parse_rejects_bad_checks():
    data = catalog_emit("tate")
    data["checks"] = ["weak_duality", "nonsense"]
    with pytest.raises(SchemaError) as err:
        parse_scenario(data)
    assert "nonsense" in str(err.value)


def test_repeated_check_is_schema_error_at_the_repeat(tmp_path, capsys):
    data = catalog_emit("tate")
    data["checks"] = ["weak_duality", "orbit_duality", "weak_duality"]
    with pytest.raises(SchemaError) as err:
        parse_scenario(data)
    assert err.value.pointer == "scenario.checks[2]"
    assert "checks[0]" in str(err.value)
    assert main(["verify", str(write_scenario(tmp_path, data))]) == 2
    assert capsys.readouterr().err.startswith("schema error: scenario.checks[2]: ")


def test_parse_requires_isogeny_for_stack_check():
    data = catalog_emit("tate")
    data["checks"] = ["stack_duality"]
    with pytest.raises(SchemaError):
        parse_scenario(data)


def test_run_scenario_reports_pass():
    sc = parse_scenario(catalog_emit("tate", order=6))
    report, ok = run_scenario(sc)
    assert ok and report["status"] == "pass"
    assert report["checks"]["weak_duality"]["status"] == "pass"


def test_non_strongly_convex_is_schema_error(tmp_path):
    data = catalog_emit("tate", order=4)
    data["rank"] = 2
    data["rays"] = [[1, 0], [-1, 0]]
    data["rho"] = [1, 1]
    data["eta"] = [1, 1]
    for c in data["characters"]:
        c["coords"] = ["formal", "formal"]
    path = write_scenario(tmp_path, data)
    code = main(["verify", str(path)])
    assert code == 2


def test_invalid_eta_fails_validation(tmp_path, capsys):
    data = catalog_emit("quadric_cone", order=4)
    data["eta"] = [0, 1]  # vanishes on the ray (1,0)
    path = write_scenario(tmp_path, data)
    code = main(["verify", str(path), "--json"])
    assert code == 1
    out = capsys.readouterr().out
    report = json.loads(out)
    fails = [e for e in report["pair"]["validation"] if not e["ok"]]
    assert any(e["condition"] == "eigenform-pole-free"
               and e["witness"] == ["1", "0"] for e in fails)


def test_verify_writes_report_beside_input(tmp_path):
    data = catalog_emit("tate", order=4)
    path = write_scenario(tmp_path, data, "mini.json")
    code = main(["verify", str(path)])
    assert code == 0
    report_path = tmp_path / "mini.report.json"
    assert report_path.exists()
    report = json.loads(report_path.read_text())
    assert report["status"] == "pass"


def test_reports_are_deterministic_across_jobs(tmp_path):
    data = catalog_emit("quadric_cone", order=6)
    path = write_scenario(tmp_path, data)
    outputs = []
    for jobs in (None, 1, 3):
        args = ["verify", str(path), "--out", str(tmp_path / f"r{jobs}.json")]
        if jobs:
            args += ["--jobs", str(jobs)]
        assert main(args) == 0
        outputs.append((tmp_path / f"r{jobs}.json").read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_rerun_byte_identical(tmp_path):
    data = catalog_emit("height_p1", order=6)
    path = write_scenario(tmp_path, data)
    main(["verify", str(path), "--out", str(tmp_path / "a.json")])
    main(["verify", str(path), "--out", str(tmp_path / "b.json")])
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_stack_scenario_wrong_q_rejected(tmp_path):
    data = catalog_emit("weight_n_stack", n=2, q=2)
    path = write_scenario(tmp_path, data)
    code = main(["verify", str(path)])
    assert code == 2
    with pytest.raises(SchemaError) as err:
        parse_scenario(data)
    assert err.value.pointer == "scenario.isogeny"
    assert main(["catalog", "emit", "weight_n_stack", "--n", "2", "--q", "2",
                 "--out", str(tmp_path / "w2.json")]) == 2


def test_series_serialization_format():
    sc = parse_scenario(catalog_emit("tate", order=2))
    report, _ = run_scenario(sc)
    row = report["checks"]["weak_duality"]["per_character"][0]
    series = row["directions"][0]["automorphic_series"]
    # [[u_exp, [[num, den, zeta_exp, z_exps], ...]], ...] with string ints.
    assert series[0][0] == "0"
    assert series[0][1][0] == ["1", "1", "0", ["1"]]


def test_cli_catalog_roundtrip(tmp_path, capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    assert "tate" in out and "weight_n_stack" in out
    target = tmp_path / "tate.json"
    assert main(["catalog", "emit", "tate", "--order", "4",
                 "--out", str(target)]) == 0
    assert json.loads(target.read_text())["truncation"] == 4
    assert main(["catalog", "emit", "no-such-entry"]) == 2


def test_missing_file_is_schema_error():
    assert main(["verify", "/nonexistent/path.json"]) == 2


def test_non_prime_power_q_is_schema_error(tmp_path, capsys):
    data = catalog_emit("tate", q=6)
    with pytest.raises(SchemaError) as err:
        parse_scenario(data)
    assert err.value.pointer == "scenario.curve.q"
    assert main(["verify", str(write_scenario(tmp_path, data))]) == 2
    assert "scenario.curve.q" in capsys.readouterr().err


def test_strong_pseudoprime_q_is_schema_error(tmp_path, capsys):
    # psi_12 = 399165290221 * 798330580441 passes Miller-Rabin on every prime base to 37.
    data = catalog_emit("tate", q=318665857834031151167461)
    with pytest.raises(SchemaError) as err:
        parse_scenario(data)
    assert err.value.pointer == "scenario.curve.q"
    assert main(["verify", str(write_scenario(tmp_path, data))]) == 2
    assert "scenario.curve.q" in capsys.readouterr().err


def test_invalid_utf8_scenario_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(catalog_emit("tate")).encode("utf-8")
                     .replace(b'"tate"', b'"t\xe2te"'))
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert "UTF-8" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("target", ["missing/dir/out.json", ".", "blocker/out.json"])
def test_unwritable_out_exits_2(tmp_path, capsys, target):
    path = write_scenario(tmp_path, catalog_emit("tate", order=2))
    (tmp_path / "blocker").write_text("a file, not a directory")
    assert main(["verify", str(path), "--out", str(tmp_path / target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write report") and err.count("\n") == 1


def test_report_permission_error_exits_2(tmp_path, capsys, monkeypatch):
    path = write_scenario(tmp_path, catalog_emit("tate", order=2))

    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "write_text", refuse)
    assert main(["verify", str(path), "--out", str(tmp_path / "r.json")]) == 2
    assert "Permission denied" in capsys.readouterr().err


@pytest.mark.parametrize("base, patch, pointer", [
    ("tate", {"curve": {"q": 2, "spin": [5]}}, "scenario.curve.spin[0]"),
    ("tate", {"curve": {"q": 2, "spin": [[1]]}}, "scenario.curve.spin[0]"),
    ("tate", {"curve": {"q": 2, "spin": [[-1, 1]]}}, "scenario.curve.spin[0]"),
    ("tate", {"curve": {"q": 2, "spin": [[0, 5], [1, -1]]}}, "scenario.curve.spin[0]"),
    ("tate", {"curve": {"q": 2, "spin": [[1, -1], [0, 5]]}}, "scenario.curve.spin[1]"),
    ("weight_n_stack", {"isogeny": {"inclusion": [[0]]}}, "scenario.isogeny.inclusion"),
    ("orthant_a2", {"height": {"cones": [[[1, 0], [0, 1]], [[0, 1], [-1, 0]]],
                               "slopes": [[1, 1], [1, 2]]}}, "scenario.height"),
    ("tate", {"height": {"cones": [[[1], [-1]]], "slopes": [[1]]}}, "scenario.height"),
    ("tate", {"height": {"cones": [], "slopes": []}}, "scenario.height"),
    ("tate", {"height": {"cones": [5], "slopes": [[1]]}}, "scenario.height.cones[0]"),
    # A fan that subdivides the orthant has no cone equal to it, so the
    # bridge would compare nothing and pass.
    ("orthant_a2", {"checks": ["height_bridge"],
                    "height": {"cones": [[[1, 0], [1, 1]], [[1, 1], [0, 1]]],
                               "slopes": [[1, 1], [1, 1]]}}, "scenario.height.cones"),
], ids=["spin-entry-not-a-pair", "spin-entry-too-short", "spin-degree-negative",
        "spin-degree-zero-first", "spin-degree-zero-second", "singular-inclusion",
        "height-slopes-disagree", "height-cone-with-line", "height-without-cones",
        "height-cone-not-a-list", "height-bridge-without-the-scenario-cone"])
def test_malformed_block_exits_2_with_pointer(tmp_path, capsys, base, patch, pointer):
    data = catalog_emit(base, order=2)
    data.update(patch)
    assert main(["verify", str(write_scenario(tmp_path, data))]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"schema error: {pointer}: ") and err.count("\n") == 1


def test_stack_duality_skips_a_divergent_character(tmp_path):
    data = {"name": "divergent_stack", "rank": 1, "rays": [[1]], "rho": [1],
            "eta": [1], "curve": {"q": 3}, "cyclotomic_order": 2,
            "truncation": 6, "characters": [{"name": "d", "coords": [{"u": -5}]}],
            "checks": ["stack_duality"], "isogeny": {"inclusion": [[2]]}}
    out = tmp_path / "r.json"
    assert main(["verify", str(write_scenario(tmp_path, data)), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["checks"]["stack_duality"] == {"status": "pass", "per_character": [
        {"character": "d", "status": "divergent-skip",
         "witness_ray": ["1"], "weight": "-4"}]}


def test_height_bridge_skips_a_divergent_character(tmp_path):
    data = catalog_emit("height_p1")
    data["characters"].append({"name": "d", "coords": [{"u": -5}]})
    out = tmp_path / "r.json"
    assert main(["verify", str(write_scenario(tmp_path, data)), "--out", str(out)]) == 0
    block = json.loads(out.read_text())["checks"]["height_bridge"]
    formal, skipped = block["per_character"]
    assert block["status"] == "pass" and formal["status"] == "equal"
    assert skipped == {"character": "d", "status": "divergent-skip",
                       "witness_ray": ["1"], "weight": "-3"}


FAN_A2 = {"cones": [[[1, 0], [0, 1]], [[0, 1], [-1, 1]]], "slopes": [[1, 1], [0, 1]]}


def test_height_bridge_compares_the_cone_of_a_larger_fan(tmp_path):
    # The orthant's own transform is its local factor at every degree; the
    # transform of the whole fan also counts the second cone's points.
    data = catalog_emit("orthant_a2")
    data.update(checks=["height_bridge"], height=FAN_A2)
    data["characters"].append({"name": "d", "coords": [{"u": 3}, "formal"]})
    out = tmp_path / "r.json"
    assert main(["verify", str(write_scenario(tmp_path, data)), "--out", str(out)]) == 0
    block = json.loads(out.read_text())["checks"]["height_bridge"]
    formal, skipped = block["per_character"]
    assert block["status"] == "pass" and formal["status"] == "equal"
    assert [d["degree"] for d in formal["degrees"] if d["equal"]] == ["1", "2", "3"]
    # The second cone's ray (-1, 1) is the fan's first bad ray.
    assert skipped == {"character": "d", "status": "divergent-skip",
                       "witness_ray": ["-1", "1"], "weight": "-1"}


def test_stack_run_reuses_the_parsed_isogeny(monkeypatch):
    import toricperiods.stacks as stacks
    sc = parse_scenario(catalog_emit("weight_n_stack", n=3))
    calls = []
    build = stacks.make_isogeny
    monkeypatch.setattr(stacks, "make_isogeny",
                        lambda matrix: calls.append(matrix) or build(matrix))
    _, ok = run_scenario(sc)
    assert ok and calls == []


def test_catalog_emit_keeps_zero_overrides(tmp_path):
    target = tmp_path / "tate.json"
    assert main(["catalog", "emit", "tate", "--order", "0", "--out", str(target)]) == 0
    assert json.loads(target.read_text())["truncation"] == 0
    assert main(["verify", str(target), "--out", str(tmp_path / "r.json")]) == 0
    assert catalog_emit("tate", q=0)["curve"]["q"] == 0
    with pytest.raises(KeyError):
        catalog_emit("weight_n_stack", n=0)


@pytest.mark.parametrize("args, message", [
    (["tate", "--q", "0"], "schema error: scenario.curve.q: "),
    (["tate", "--q", "6"], "schema error: scenario.curve.q: "),
    (["tate", "--order", "-1"], "schema error: scenario.truncation: "),
    (["weight_n_stack", "--n", "0"], "error: weight must be >= 1"),
])
def test_catalog_emit_refuses_what_verify_rejects(tmp_path, capsys, args, message):
    target = tmp_path / "s.json"
    assert main(["catalog", "emit", *args, "--out", str(target)]) == 2
    assert not target.exists()
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1


@pytest.mark.parametrize("via", ["--out", "TORICPERIODS_OUTDIR"])
def test_catalog_emit_unwritable_target_exits_2(tmp_path, capsys, monkeypatch, via):
    missing = tmp_path / "missing"
    if via == "--out":
        args = ["--out", str(missing / "tate.json")]
    else:
        monkeypatch.setenv("TORICPERIODS_OUTDIR", str(missing))
        args = []
    assert main(["catalog", "emit", "tate", *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write scenario to ") and err.count("\n") == 1


def test_python_m_runs_the_command_line():
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-B", "-m", "toricperiods", "catalog", "list"],
                          env={"PYTHONPATH": str(src)}, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    assert [line.split(":")[0] for line in done.stdout.splitlines()] == catalog_names()
    # Importing the module (as tools that walk the package do) runs nothing.
    done = subprocess.run([sys.executable, "-B", "-c", "import toricperiods.__main__"],
                          env={"PYTHONPATH": str(src)}, capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")



@pytest.mark.parametrize("command", [
    ["catalog", "list"], ["catalog", "emit", "tate"], ["verify"], ["verify", "--json"]],
    ids=["catalog-list", "catalog-emit", "verify", "verify-json"])
def test_closed_stdout_exits_2_without_a_traceback(tmp_path, command):
    # The read end of the pipe closes before the child starts, so every
    # write to stdout fails; the output could not be written, which is
    # exit code 2, not 1 ("a check failed").
    src = Path(__file__).resolve().parents[1] / "src"
    report = tmp_path / "report.json"
    if command[0] == "verify":
        path = write_scenario(tmp_path, catalog_emit("tate", order=2))
        command = [*command, str(path), "--out", str(report)]
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-B", "-m", "toricperiods", *command],
                              env={"PYTHONPATH": str(src)}, stdout=write,
                              stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr and "BrokenPipeError" not in done.stderr
    assert report.exists() == (command[0] == "verify")

# ----------------------------------------------------------------------
# Schema sweep: every single-field mutation of every catalog entry either
# runs or raises SchemaError at a pointer on the mutated field's path.

SWEEP_VALUES = (None, True, 2.5, "x", -1, 0, 1, 2, [], {}, [0])
SWEEP_TRUNCATION = 3  # keeps the runs that pass the parser cheap

# Rules that read two fields, as (mutated field, reported pointer).
CROSS_FIELD = {
    ("scenario.rank", "scenario.rays[0]"),  # rays are checked against rank
    ("scenario.curve.q", "scenario.isogeny"),  # q must be 1 mod the exponent
    ("scenario.isogeny", "scenario.checks"),  # deleted, stack_duality needs it
    ("scenario.height", "scenario.checks"),  # deleted, height_bridge needs it
    # height_bridge needs a height cone equal to the scenario cone.
    ("scenario.rays", "scenario.height.cones"),
    ("scenario.rays[0]", "scenario.height.cones"),
    ("scenario.rays[0][0]", "scenario.height.cones"),
}


def _fields(value, pointer="scenario"):
    """(pointer, key path) of every dict entry and list item below value."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, sub in items:
        here = f"{pointer}.{key}" if isinstance(key, str) else f"{pointer}[{key}]"
        yield here, (key,)
        for deeper, path in _fields(sub, here):
            yield deeper, (key,) + path


def _on_one_path(a, b):
    a, b = sorted((a, b), key=len)
    return a == b or b.startswith((a + ".", a + "["))


DELETE = object()


def _mutations(base):
    """(mutated field, scenario) for each wrong value and each deleted key."""
    for pointer, path in _fields(base):
        deletion = (DELETE,) if isinstance(path[-1], str) else ()
        for value in SWEEP_VALUES + deletion:
            data = json.loads(json.dumps(base))
            parent = data
            for key in path[:-1]:
                parent = parent[key]
            if value is DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = json.loads(json.dumps(value))
            yield pointer, data


def test_schema_sweep_runs_or_points_at_the_mutated_field():
    cases, cross = 0, set()
    for name in catalog_names():
        base = catalog_emit(name)
        base["truncation"] = min(base["truncation"], SWEEP_TRUNCATION)
        for field, data in _mutations(base):
            cases += 1
            try:
                run_scenario(parse_scenario(data))
            except SchemaError as err:
                if not _on_one_path(err.pointer, field):
                    cross.add((field, err.pointer))
    assert cases > 2000
    assert cross == CROSS_FIELD


def test_the_package_imports_no_fraction_arithmetic():
    """Every scalar is an integer over one denominator: a run's imports load
    neither `fractions` nor the `decimal` and `numbers` it pulls in."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys\n"
            "import toricperiods.cli, toricperiods.scenario\n"
            "print(sorted({'fractions', 'decimal', 'numbers'} & set(sys.modules)))\n")
    done = subprocess.run([sys.executable, "-B", "-c", code], env={"PYTHONPATH": str(src)},
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# The package's 28 public names, written out apart from its export table.
PUBLIC_NAMES = [
    "Character", "Cone", "Curve", "GradedDualPair", "GradedToricDatum", "TruncatedSeries",
    "automorphic_local_factor", "automorphic_period", "certified", "character_from_spec",
    "dual_cone", "face_dual", "faces", "formal_character", "hilbert_basis", "is_cuspidal",
    "is_generic", "make_cone", "make_isogeny", "place_counts", "points_at_level",
    "spectral_local_factor", "spectral_period", "toric_dual",
    "verify_langlands_dual_periods", "verify_stack_duality", "verify_weak_duality",
    "zeta_series",
]

IMPORT_GRAPH = r"""
import json, sys

def loaded():
    return {m for m in sys.modules if m.startswith("toricperiods.")}

import toricperiods
seen = {"package": sorted(loaded())}
import toricperiods.scenario as scenario
before = loaded()
seen["scenario"] = sorted(before & {"toricperiods.stacks", "toricperiods.heights"})
for name in ("weight_n_stack", "height_p1"):
    scenario.parse_scenario(scenario.catalog_emit(name))
    seen[name] = sorted(loaded() - before)
    before = loaded()
seen["all"] = toricperiods.__all__
seen["defined_by_module"] = [
    name for name in toricperiods.__all__
    if (value := getattr(toricperiods, name)).__module__.startswith("toricperiods.")
    and vars(sys.modules[value.__module__])[name] is value]
namespace = {}
exec("from toricperiods import *", namespace)
seen["star"] = sorted(set(namespace) - {"__builtins__"})
seen["submodule"] = toricperiods.cones is sys.modules["toricperiods.cones"]
try:
    toricperiods.no_such_name
except AttributeError:
    seen["unknown"] = "AttributeError"
print(json.dumps(seen))
"""


def test_block_modules_load_only_with_their_blocks():
    """`import toricperiods` loads no submodule; `stacks` and `heights` load while
    an isogeny or a height block is parsed, and with nothing else."""
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-B", "-c", IMPORT_GRAPH],
                          env={"PYTHONPATH": str(src)}, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    assert seen["package"] == [] and seen["scenario"] == []
    assert seen["weight_n_stack"] == ["toricperiods.stacks"]
    assert seen["height_p1"] == ["toricperiods.heights"]
    assert seen["all"] == seen["defined_by_module"] == seen["star"] == PUBLIC_NAMES
    assert seen["submodule"] is True and seen["unknown"] == "AttributeError"
