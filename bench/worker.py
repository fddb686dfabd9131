"""One benchmark pass in a fresh interpreter.

    python3 bench/worker.py '<request as JSON>'

Request keys: ``root`` (checkout holding ``src/toricperiods``),
``scenarios`` (scenario files in run order), ``jobs``, ``out`` (report
directory) and ``mode`` (``setup``, ``verify`` or ``trace``).  The
worker sets up (imports the package, loads, builds and validates every
scenario), then in ``verify`` and ``trace`` mode runs one pass of the
verify path: ``load_scenario``, ``run_scenario``, ``report_to_json`` and
writing the report.  It prints one JSON line with its timings, peak RSS
and the report digests.

A digest is the sha256 of the report file with the value of its
top-level ``engine`` field (the package version) blanked, so that a
version bump alone does not change it.
"""

from __future__ import annotations

import hashlib
import json
import re
import resource
import sys
import time
from pathlib import Path

clock = time.perf_counter
ENGINE = re.compile(rb'^ "engine": "[^"\n]*"', re.MULTILINE)


def _peak_rss_mib():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def digest(report: bytes) -> str:
    return hashlib.sha256(ENGINE.sub(b' "engine": ""', report, count=1)).hexdigest()


def main(request):
    root = Path(request["root"]).resolve()
    paths = [Path(p) for p in request["scenarios"]]
    mode = request["mode"]
    sys.path.insert(0, str(root / "src"))

    t0 = clock()
    import toricperiods
    from toricperiods import duality, scenario

    source = Path(toricperiods.__file__).resolve()
    if not source.is_relative_to(root / "src"):
        raise SystemExit(f"toricperiods imported from {source}, not from {root}/src")
    tracer = None
    if mode == "trace":
        from tracer import MAXIMA, Tracer
        tracer = Tracer()
        tracer.install()
    for path in paths:
        sc = scenario.load_scenario(path)
        if not duality.validate_pair(sc.build_pair()).ok:
            raise SystemExit(f"{path}: the scenario's pair does not validate")
    setup_s = clock() - t0
    result = {"setup_s": setup_s}
    if mode == "setup":
        return result

    out = Path(request["out"])
    per_scenario = {}
    statuses = {}
    t0 = clock()
    for path in paths:
        before = tracer.counts() if tracer else None
        sc = scenario.load_scenario(path)
        report, _ = scenario.run_scenario(sc, jobs=request["jobs"])
        payload = scenario.report_to_json(report)
        (out / f"{path.stem}.report.json").write_text(payload, encoding="utf-8")
        statuses[path.stem] = report["status"]
        if tracer:
            tracer.close_scope()
            after = tracer.counts()
            per_scenario[path.stem] = {
                k: v - before[k] for k, v in after.items()
                if v != before[k] and not k.endswith("_s") and k not in MAXIMA}
    result["verify_s"] = clock() - t0
    result["peak_rss_mib"] = _peak_rss_mib()
    result["reports"] = {
        stem: {"status": status,
               "sha256": digest((out / f"{stem}.report.json").read_bytes())}
        for stem, status in statuses.items()}
    if tracer:
        result["counts"] = tracer.counts()
        result["per_scenario"] = per_scenario
        result["bindings"] = tracer.bindings
        result["unpatched"] = tracer.unpatched()
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
