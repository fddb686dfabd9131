"""Spans and counters recorded from outside the toricperiods package.

The tracer wraps public functions at module boundaries.  Modules bind
names with ``from .periods import euler_product`` and classes alias
methods (``Cyc.__rmul__ = __mul__``), so a hook replaces every binding of
the original object in every module and class of the package, and
``unpatched()`` asks the garbage collector whether anything still refers
to an original.

Counters are kept per thread and merged on read, so counts stay exact
when ``euler_product`` evaluates local factors in a thread pool.  A span
knows its parent; its self time is its duration minus the time its
children cover.  Children on another thread (local factors evaluated by
the pool) are merged as intervals, because they overlap each other.
Time the tracer spends on its own bookkeeping after a call is taken out
of every enclosing span.  The hot leaf (``Cyc`` arithmetic) keeps only
a count and a total time.

For a function behind ``functools.lru_cache`` the hook wraps the cache,
so ``<key>_calls`` and the observer count only the calls that missed it
and so did the work; ``<key>_s`` still covers every call.  The traced
calls to cached functions hold one lock, so that a miss is attributed to
its own call when the pool runs local factors on two threads.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import pkgutil
import sys
import threading
import time
import types
from collections import defaultdict

clock = time.perf_counter


def _series_stats(counts, args, kwargs, result):
    rows = result.coeffs
    widest = max((len(terms) for _, terms in rows), default=0)
    if widest > counts["series.max_row_terms"]:
        counts["series.max_row_terms"] = widest
    bits = counts["series.coeff_bits_max"]
    for _, terms in rows:
        for _, cyc in terms:
            for frac in cyc.coeffs:
                b = max(frac.numerator.bit_length(), frac.denominator.bit_length())
                if b > bits:
                    bits = b
    counts["series.coeff_bits_max"] = bits


def _power_stats(counts, args, kwargs, result):
    k = args[1] if len(args) > 1 else kwargs["k"]
    counts["series.power_exponent_bits"] += k.bit_length()


def _points_stats(counts, args, kwargs, result):
    counts["cones.points_yielded"] += len(result)


def _orbit_stats(counts, args, kwargs, result):
    if result.status == "computed":
        counts["regularization.orbit_computed"] += 1


def _report_stats(counts, args, kwargs, result):
    counts["scenario.report_bytes"] += len(result.encode("utf-8"))


# Counters the observers and the Euler hook add; the maxima merge by max.
OBSERVED = ("series.power_exponent_bits", "series.max_row_terms",
            "series.coeff_bits_max", "cones.points_yielded",
            "regularization.orbit_computed", "scenario.report_bytes",
            "periods.local_terms", "periods.euler_distinct_inputs")
MAXIMA = ("series.max_row_terms", "series.coeff_bits_max")

LEAF = "leaf"
EULER = "euler"
EULER_FACTOR = "periods.euler_factor"  # one local factor asked for by euler_product

# (module, attribute path, metric key, kind or observer).  A span hook
# yields <key>_calls, <key>_s (outermost calls only) and <key>_self_s.
HOOKS = (
    ("cyclotomic", "Cyc.__mul__", "cyclotomic.mul", LEAF),
    ("cyclotomic", "Cyc.__add__", "cyclotomic.add", LEAF),
    ("cyclotomic", "Cyc.inverse", "cyclotomic.inverse", LEAF),
    ("series", "TruncatedSeries.__mul__", "series.mul", _series_stats),
    ("series", "TruncatedSeries.power", "series.power", _power_stats),
    ("periods", "euler_product", "periods.euler_product", EULER),
    ("periods", "automorphic_local_factor", "periods.aut_local", None),
    ("periods", "spectral_local_factor", "periods.spec_local", None),
    ("cones", "points_at_level", "cones.points_at_level", _points_stats),
    ("cones", "hilbert_basis", "cones.hilbert_basis", None),
    ("regularization", "regularized_automorphic_contribution",
     "regularization.orbit", _orbit_stats),
    ("regularization", "regularized_spectral_contribution",
     "regularization.orbit", _orbit_stats),
    ("stacks", "unramified_automorphic_period_liftsum", "stacks.liftsum", None),
    ("stacks", "stack_spectral_period_unramified",
     "stacks.spectral_unramified", None),
    ("stacks", "unramified_automorphic_period_direct", "stacks.direct", None),
    ("scenario", "_run_weak_duality", "check.weak_duality", None),
    ("scenario", "_run_orbit_duality", "check.orbit_duality", None),
    ("scenario", "_run_stack_duality", "check.stack_duality", None),
    ("scenario", "_run_height_bridge", "check.height_bridge", None),
    ("scenario", "load_scenario", "scenario.load", None),
    ("scenario", "run_scenario", "scenario.run", None),
    ("scenario", "report_to_json", "scenario.report", _report_stats),
    ("duality", "validate_pair", "duality.validate", None),
)


class _Frame:
    __slots__ = ("key", "parent", "state", "start", "ov0", "child", "xchild",
                 "outer")


class _ThreadState:
    __slots__ = ("stack", "active", "counts", "ov")

    def __init__(self):
        self.stack = []
        self.active = set()
        self.counts = defaultdict(int)
        self.ov = 0.0


def _covered(intervals):
    total = 0.0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def package_modules():
    root = importlib.import_module("toricperiods")
    for info in pkgutil.iter_modules(root.__path__):
        importlib.import_module(f"toricperiods.{info.name}")
    return [m for name, m in sorted(sys.modules.items())
            if name == "toricperiods" or name.startswith("toricperiods.")]


class Tracer:
    def __init__(self):
        self._tls = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._cache_lock = threading.RLock()
        self._hooks = []          # (label, original, wrapper)
        self.bindings = {}        # label -> patched binding names
        self.euler_inputs = set()  # of the current scope
        self._distinct = 0         # of the closed scopes
        self._known = set(OBSERVED)

    # --- per-thread state and span bookkeeping --------------------------

    def _state(self):
        st = getattr(self._tls, "st", None)
        if st is None:
            with self._lock:
                st = _ThreadState()
                self._states.append(st)
            self._tls.st = st
        return st

    def _enter(self, key, parent=None):
        st = self._state()
        fr = _Frame()
        fr.key = key
        fr.parent = parent if parent is not None else (
            st.stack[-1] if st.stack else None)
        fr.state = st
        fr.child = 0.0
        fr.xchild = []
        fr.outer = key not in st.active
        if fr.outer:
            st.active.add(key)
        st.stack.append(fr)
        fr.ov0 = st.ov
        fr.start = clock()
        return st, fr

    def _exit(self, st, fr, called=True):
        t1 = clock()
        dur = t1 - fr.start - (st.ov - fr.ov0)
        st.stack.pop()
        key = fr.key
        if fr.outer:
            st.active.discard(key)
        c = st.counts
        if called:
            c[key + "_calls"] += 1
        if fr.outer:
            c[key + "_s"] += dur
        c[key + "_self_s"] += dur - fr.child - _covered(fr.xchild)
        parent = fr.parent
        if parent is not None:
            if parent.state is st:
                parent.child += dur
            else:
                parent.xchild.append((fr.start, t1))
        return t1

    def _span(self, key, fn, observe):
        tracer = self

        def traced(*args, **kwargs):
            st, fr = tracer._enter(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = tracer._exit(st, fr)
            if observe is not None:
                observe(st.counts, args, kwargs, result)
            st.ov += clock() - t1
            return result

        return traced

    def _cached(self, key, fn, observe):
        """Span for an lru_cache function that counts only its misses."""
        tracer = self
        info = fn.cache_info

        def traced(*args, **kwargs):
            with tracer._cache_lock:
                before = info().misses
                st, fr = tracer._enter(key)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    missed = info().misses > before
                    t1 = tracer._exit(st, fr, called=missed)
            if missed and observe is not None:
                observe(st.counts, args, kwargs, result)
            st.ov += clock() - t1
            return result

        return traced

    def _leaf(self, key, fn):
        state = self._state
        calls, secs = key + "_calls", key + "_s"

        def traced(*args):
            st = state()
            t0 = clock()
            result = fn(*args)
            dt = clock() - t0
            c = st.counts
            c[calls] += 1
            c[secs] += dt
            if st.stack:
                st.stack[-1].child += dt
            return result

        return traced

    def _euler(self, key, fn):
        """Span for euler_product that also records its inputs.

        The local_factor callable is wrapped so each factor it returns is
        kept; the input key is those factors in degree order plus every
        other argument except the worker count.  No factor is computed
        twice for the key.
        """
        tracer = self
        signature = inspect.signature(fn)

        def traced(local_factor, *args, **kwargs):
            st, fr = tracer._enter(key)
            got = []

            def factor(degree):
                st2, fr2 = tracer._enter(EULER_FACTOR, parent=fr)
                try:
                    out = local_factor(degree)
                finally:
                    t1 = tracer._exit(st2, fr2)
                got.append((degree, out))
                st2.ov += clock() - t1
                return out

            try:
                result = fn(factor, *args, **kwargs)
            finally:
                t1 = tracer._exit(st, fr)
            got.sort(key=lambda pair: pair[0])
            factors = tuple(f for _, f in got)
            st.counts["periods.local_terms"] += sum(
                len(terms) for f in factors for _, terms in f.coeffs)
            bound = signature.bind(local_factor, *args, **kwargs)
            bound.apply_defaults()
            rest = tuple((name, value) for name, value in bound.arguments.items()
                         if name not in ("local_factor", "jobs"))
            with tracer._lock:
                tracer.euler_inputs.add((factors, rest))
            st.ov += clock() - t1
            return result

        return traced

    # --- installation ---------------------------------------------------

    def install(self):
        modules = package_modules()
        classes = {v for m in modules for v in vars(m).values()
                   if isinstance(v, type) and v.__module__.startswith("toricperiods")}
        for modname, path, key, kind in HOOKS:
            owner = importlib.import_module(f"toricperiods.{modname}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            if kind == LEAF:
                wrapper = self._leaf(key, original)
                self._known.update((key + "_calls", key + "_s"))
                spans = ()
            elif kind == EULER:
                wrapper = self._euler(key, original)
                spans = (key, EULER_FACTOR)
            elif hasattr(original, "cache_info"):
                wrapper = self._cached(key, original, kind)
                spans = (key,)
            else:
                wrapper = self._span(key, original, kind)
                spans = (key,)
            self._known.update(k + suffix for k in spans
                               for suffix in ("_calls", "_s", "_self_s"))
            label = f"{modname}.{path}"
            names = []
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, wrapper)
                        names.append(f"{m.__name__}.{name}")
            for cls in classes:
                for name, value in list(vars(cls).items()):
                    if value is original:
                        setattr(cls, name, wrapper)
                        names.append(f"{cls.__module__}.{cls.__qualname__}.{name}")
            self._hooks.append((label, original, wrapper))
            self.bindings[label] = sorted(names)

    def unpatched(self):
        """Bindings that still reach an original, found through the gc.

        Any dict, cell, list or tuple referring to a hooked original,
        other than the hook's own wrapper and this tracer's records, is a
        call path the trace would miss.
        """
        own = {id(self._hooks)}
        for hook in self._hooks:
            own.add(id(hook))
            for cell in hook[2].__closure__ or ():
                own.add(id(cell))
        missed = []
        gc.collect()
        for label, original, _ in self._hooks:
            for ref in gc.get_referrers(original):
                if id(ref) in own or isinstance(ref, types.FrameType):
                    continue
                if isinstance(ref, (dict, list, tuple, types.CellType)):
                    missed.append(f"{label} via {type(ref).__name__} "
                                  f"{_describe(ref, original)}")
        return missed

    # --- results ----------------------------------------------------------

    def close_scope(self):
        """End a scope (one scenario): later inputs are counted afresh."""
        self._distinct += len(self.euler_inputs)
        self.euler_inputs = set()

    def counts(self):
        """Every counter of the installed hooks, zero when never reached."""
        merged = dict.fromkeys(self._known, 0)
        for st in self._states:
            for k, v in st.counts.items():
                merged[k] = max(merged.get(k, 0), v) if k in MAXIMA else (
                    merged.get(k, 0) + v)
        merged["periods.euler_distinct_inputs"] = (
            self._distinct + len(self.euler_inputs))
        return merged


def _describe(ref, original):
    if isinstance(ref, dict):
        names = [k for k, v in ref.items() if v is original]
        owner = ref.get("__name__", "")
        return f"{owner}:{names}"
    return ""
