"""Command-line interface: scenario verification and the scenario catalog.

Exit codes: 0 all requested checks passed, 1 a check failed (the report
carries the first-mismatch witness) or a well-formed pair failed its
grading conditions (an eta with a pole, say: no check runs, and the
report is `status: fail` with the witness), 2 the scenario file (or, for
`catalog emit`, the emitted scenario) could not be read, did not parse
or failed the schema check, or the report or scenario could not be
written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .scenario import (
    CATALOG,
    SchemaError,
    catalog_emit,
    catalog_names,
    load_scenario,
    parse_scenario,
    report_to_json,
    run_scenario,
)


def _default_outdir() -> Path | None:
    env = os.environ.get("TORICPERIODS_OUTDIR")
    return Path(env) if env else None


def _print_human(report: dict):
    print(f"scenario: {report['scenario']['name']}")
    print(f"engine:   {report['engine']}")
    for entry in report.get("pair", {}).get("validation", []):
        flag = "ok " if entry["ok"] else "FAIL"
        witness = f" witness={entry.get('witness')}" if not entry["ok"] else ""
        print(f"  [{flag}] {entry['side']}: {entry['condition']}{witness}")
    for name, block in report.get("checks", {}).items():
        print(f"check {name}: {block['status']}")
        for row in block.get("per_character", []):
            status = row.get("status", "?")
            print(f"  character {row['character']}: {status}")
            for where, rows in _mismatches(row):
                print(f"    first mismatch, {where}:")
                for side in ("automorphic", "spectral"):
                    print(f"      {side}: {json.dumps(rows[side])}")
    print(f"overall: {report['status']}")


def _mismatches(row):
    """(where, first_mismatch_rows) for each differing comparison of a character."""
    for d in row.get("directions", []):
        if "first_mismatch_rows" in d:
            yield (f"automorphic on {d['automorphic_side']} vs "
                   f"spectral on {d['spectral_side']}", d["first_mismatch_rows"])
        for p in d.get("pairs", []):
            if "first_mismatch_rows" in p:
                yield (f"{d['direction']} face {json.dumps(p['face'])}",
                       p["first_mismatch_rows"])
    for c in row.get("checks", []):
        if "first_mismatch_rows" in c:
            yield f"stack identity {c['name']}", c["first_mismatch_rows"]


def cmd_verify(args) -> int:
    path = Path(args.scenario)
    try:
        scenario = load_scenario(path)
        report, ok = run_scenario(scenario)
    except SchemaError as err:
        print(f"schema error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"schema error: {path}: {err.strerror}", file=sys.stderr)
        return 2
    payload = report_to_json(report)
    outdir = Path(args.out).parent if args.out else (_default_outdir() or path.parent)
    out_path = Path(args.out) if args.out else outdir / (path.stem + ".report.json")
    try:
        out_path.write_text(payload, encoding="utf-8")
    except OSError as err:
        print(f"error: cannot write report to {out_path}: {err.strerror}",
              file=sys.stderr)
        return 2
    if args.json:
        sys.stdout.write(payload)
    else:
        _print_human(report)
        print(f"report written to {out_path}")
    return 0 if ok else 1


def cmd_catalog(args) -> int:
    if args.action == "list":
        for name in catalog_names():
            print(f"{name}: {CATALOG[name][0]}")
        return 0
    try:
        data = catalog_emit(args.name, q=args.q, order=args.order, n=args.n)
        parse_scenario(data)
    except KeyError as err:
        print(f"error: {err.args[0]}", file=sys.stderr)
        return 2
    except SchemaError as err:
        print(f"schema error: {err}", file=sys.stderr)
        return 2
    text = json.dumps(data, sort_keys=True, indent=1) + "\n"
    outdir = _default_outdir()
    if args.out:
        target = Path(args.out)
    elif outdir is not None:
        target = outdir / f"{data['name']}.json"
    else:
        sys.stdout.write(text)
        return 0
    try:
        target.write_text(text, encoding="utf-8")
    except OSError as err:
        print(f"error: cannot write scenario to {target}: {err.strerror}",
              file=sys.stderr)
        return 2
    print(f"wrote {target}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricperiods",
        description="Exact verification of toric period dualities over P^1/F_q.")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the checks of a scenario file")
    verify.add_argument("scenario", help="path to a scenario JSON file")
    verify.add_argument("--json", action="store_true",
                        help="print the machine-readable report to stdout")
    verify.add_argument("--jobs", type=int, default=None,
                        help="accepted for compatibility; has no effect")
    verify.add_argument("--out", default=None,
                        help="report path (default: beside the input)")
    verify.set_defaults(func=cmd_verify)

    catalog = sub.add_parser("catalog", help="list or emit built-in scenarios")
    catalog.add_argument("action", choices=("list", "emit"))
    catalog.add_argument("name", nargs="?", default=None)
    catalog.add_argument("--q", type=int, default=None, help="override the field size")
    catalog.add_argument("--order", type=int, default=None,
                         help="override the truncation order")
    catalog.add_argument("--n", type=int, default=None,
                         help="weight for weight_n_stack")
    catalog.add_argument("--out", default=None, help="write the scenario here")
    catalog.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "catalog" and args.action == "emit" and not args.name:
        parser.error("catalog emit requires a name")
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout: the output could not be written.  Point
        # stdout at the null device, so the flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
