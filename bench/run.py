"""Benchmark of the ``toricperiods verify`` path.

    python3 bench/run.py --workload catalog --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each timed pass runs in a fresh worker
process (``bench/worker.py``), as a user starts a fresh process for each
scenario file, so no cache survives from one pass to the next.  The seed
only permutes the scenario order within the workload; report digests do
not depend on it.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: medians
over the passes that fit in ``--seconds`` (at least MIN_PASSES), and
setup time as the median over at least MIN_SETUPS fresh workers.  ``--trace 1`` runs
one untraced pass and two traced passes, checks that every binding of a
hooked function was patched and that the two traced passes count exactly
the same, and reports the per-layer metrics.  Every report is checked
against the sha256 recorded in ``bench/digests.json``; any mismatch or
non-passing verdict exits 1.

The last line of standard output is the result object; the line before
it records the run (Python version, nproc, seed, samples).  Exit code 2
means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
clock = time.perf_counter

# Why each workload exists is in bench/README.md.
WORKLOADS = {
    "catalog": (("tate", "orthant_a2", "quadric_cone", "quadric_cone_eta21",
                 "square_cone_3d", "weight_2_stack", "weight_3_stack",
                 "height_p1"), None),
    "stack_cyclotomic": (("weight_7_stack_q8_u14", "weight_12_stack_q13_u10"),
                         None),
    "large_q": (("quadric_cone_q5_u14",), 2),
}
MIN_PASSES = 3
MIN_SETUPS = 15
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class Runner:
    def __init__(self, workload, seed, deadline):
        names, jobs = WORKLOADS[workload]
        order = list(names)
        random.Random(seed).shuffle(order)
        self.workload = workload
        self.order = order
        self.jobs = min(jobs, nproc()) if jobs else None
        self.deadline = deadline
        self.out = ROOT / ".bench_run" / f"{workload}-{os.getpid()}"
        self.digests = json.loads((HERE / "digests.json").read_text())
        self.attempted = 0
        self.failed = []

    def worker(self, mode, **extra):
        request = {"root": str(ROOT), "mode": mode, "jobs": self.jobs,
                   "out": str(self.out),
                   "scenarios": [str(HERE / "scenarios" / f"{name}.json")
                                 for name in self.order], **extra}
        env = dict(os.environ, PYTHONHASHSEED="0")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(request)],
                cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - clock()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} worker ran past the run limit") from None
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited {proc.returncode}:\n"
                             f"{proc.stderr.strip()[-3000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if mode != "setup":
            self._check(result["reports"])
        return result

    def _check(self, reports):
        for name in self.order:
            self.attempted += 1
            got = reports.get(name, {})
            if got.get("status") != "pass" or got.get("sha256") != self.digests[name]:
                self.failed.append({"scenario": name, **got})

    def __enter__(self):
        self.out.mkdir(parents=True, exist_ok=True)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.out, ignore_errors=True)


def untraced(runner, seconds, spec):
    passes = []
    start = clock()
    while len(passes) < MIN_PASSES or clock() - start < seconds:
        passes.append(runner.worker("verify"))
    setups = [p["setup_s"] for p in passes]
    while len(setups) < MIN_SETUPS:
        setups.append(runner.worker("setup")["setup_s"])
    samples = {
        "verify_s": [p["verify_s"] for p in passes],
        "setup_s": setups,
        "peak_rss_mib": [p["peak_rss_mib"] for p in passes],
    }
    values = {k: statistics.median(v) for k, v in samples.items()}
    values["pass_ratio"] = 1 - len(runner.failed) / runner.attempted
    return _select(spec["end_to_end"], values), {"samples": samples}


def traced(runner, seconds, spec):
    base = runner.worker("verify")
    runs = [runner.worker("trace") for _ in range(2)]
    for run in runs:
        if run["unpatched"]:
            raise BenchError("unpatched bindings of hooked functions:\n  "
                             + "\n  ".join(run["unpatched"]))
    first, second = (r["counts"] for r in runs)
    differ = sorted(k for k in first.keys() | second.keys()
                    if not k.endswith("_s") and first.get(k) != second.get(k))
    if differ:
        raise BenchError("traced counts differ between two traced passes: "
                         + ", ".join(f"{k} {first.get(k)} != {second.get(k)}"
                                     for k in differ))
    values = {k: (v + second[k]) / 2 if k.endswith("_s") else v
              for k, v in first.items()}
    values["periods.euler_distinct_ratio"] = _ratio(
        values["periods.euler_distinct_inputs"],
        values["periods.euler_product_calls"])
    values["regularization.computed_ratio"] = _ratio(
        values["regularization.orbit_computed"],
        values["regularization.orbit_calls"])
    traced_s = statistics.median(r["verify_s"] for r in runs)
    values["trace.overhead_ratio"] = traced_s / base["verify_s"]
    record = {"untraced_verify_s": base["verify_s"],
              "traced_verify_s": [r["verify_s"] for r in runs],
              "per_scenario": runs[0]["per_scenario"],
              "bindings": runs[0]["bindings"]}
    return _select(spec["per_layer"], values), record


def _ratio(num, den):
    return num / den if den else 0.0


def _select(declared, values):
    out = {}
    for metric in declared:
        value = values.get(metric["name"])
        if value is None:
            raise BenchError(f"metric {metric['name']} was not measured")
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = clock() + RUN_LIMIT_S
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        with Runner(args.workload, args.seed, deadline) as runner:
            measure = traced if args.trace else untraced
            metrics, record = measure(runner, args.seconds, spec)
    except (BenchError, OSError, ValueError, KeyError) as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    record = {"workload": args.workload, "seed": args.seed,
              "python": platform.python_version(), "nproc": nproc(),
              "jobs": runner.jobs, "order": runner.order,
              "failures": runner.failed, **record}
    print(json.dumps({"run": record}, sort_keys=True))
    print(json.dumps({"correct": not runner.failed,
                      "attempted": runner.attempted,
                      "failed": len(runner.failed),
                      "metrics": metrics}))
    return 0 if not runner.failed else 1


if __name__ == "__main__":
    sys.exit(main())
