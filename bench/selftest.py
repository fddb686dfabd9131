"""Self-test of the tracer.

    python3 bench/selftest.py

Run from the root of a checkout.  Checks that every hook patches at
least one binding, and that a binding the hooks cannot see (a name
imported into another module before the tracer installs) is reported by
``Tracer.unpatched``.  That no binding is left unpatched in a real run,
and that two traced passes count exactly alike, is checked by every
``run.py --trace 1`` run.

Exits 0 when all hold.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _require(condition, message):
    if not condition:
        raise SystemExit(f"self-test failed: {message}")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from toricperiods import periods
    from tracer import Tracer

    holder = types.ModuleType("stale_binding")
    holder.euler_product = periods.euler_product
    tracer = Tracer()
    tracer.install()
    empty = [label for label, names in tracer.bindings.items() if not names]
    _require(not empty, f"hooks that patched nothing: {empty}")
    missed = tracer.unpatched()
    _require(missed and all("stale_binding" in m for m in missed),
             f"the stale binding was not reported exactly: {missed}")
    print(f"stale binding detected: {missed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
