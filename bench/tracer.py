"""Span tracer that times calls into regover's public functions from outside.

The package itself carries no instrumentation.  ``install`` replaces each
traced function with a timing wrapper in every regover module that holds a
reference to it: ``chern``, ``inequalities`` and ``cli`` import ``pk``,
``bessel_i1``, ``mu``, ``estimate`` and others by name, so wrapping only the
defining module would miss their calls.  ``Interval`` arithmetic and endpoint
reads are far too frequent for spans and are counted instead.

A span records name, start, end and parent.  Spans are kept in memory and
reduced to per-name calls, inclusive seconds and self seconds by
``summary`` when the traced process ends.  A layer's self time is its
duration minus the part of that interval its child spans cover; child spans
from pool threads may overlap, so the covered part is a union of intervals.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

# The public functions traced in each layer (module) of the package.
LAYERS = {
    "qseries": ("pk_series", "pk"),
    "numerics": ("bessel_i1", "mu"),
    "chern": (
        "verify_bracket",
        "verify_corollary_bracket",
        "main_term",
        "remainder_bound",
        "estimate",
    ),
    "inequalities": ("scan_thresholds", "verify_q_containment", "q_bounds", "q_ratio"),
    "combinatorics": ("verify_lemma", "enumerate_overpartitions", "count_overpartitions"),
}
MODULES = ("qseries", "numerics", "chern", "inequalities", "combinatorics", "cli")

# Interval members counted as one arithmetic operation per call.
INTERVAL_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "pow_int", "sqrt", "exp", "cos", "sin",
)

CLI_STEP = "cli.step"


class Tracer:
    """In-memory span store; one instance per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        # spans opened by pool threads with an empty stack hang off the root
        self.root = -1
        self._sid = array("q")
        self._nid = array("i")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        # next() on itertools.count is atomic under the GIL, so pool
        # threads can count without a lock; the value is read back by next()
        self._ops = itertools.count()
        self._reads = itertools.count()
        self.max_order = 0
        self.enum_cache_source = None

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self) -> tuple[list, int, int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        sid = next(self._ids)
        parent = stack[-1] if stack else self.root
        stack.append(sid)
        return stack, sid, parent

    def _close(self, stack, sid, parent, nid, t0, t1) -> None:
        stack.pop()
        with self._lock:
            self._sid.append(sid)
            self._nid.append(nid)
            self._parent.append(parent)
            self._start.append(t0)
            self._end.append(t1)

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, sid, parent = self._open()
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(stack, sid, parent, nid, t0, clock())

        return traced

    @contextmanager
    def root_span(self, name: str):
        """A span that also parents spans opened by pool threads."""
        nid = self._name_id(name)
        stack, sid, parent = self._open()
        self.root = sid
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(stack, sid, parent, nid, t0, time.perf_counter())
            self.root = parent

    def counts(self) -> dict[str, int]:
        return {
            "numerics.Interval.ops": next(self._ops),
            "numerics.Interval.endpoint_reads": next(self._reads),
        }

    def summary(self) -> dict:
        """Per-name [calls, inclusive seconds, self seconds] and counters.

        Call once, when the traced work has ended: reading the counters
        advances them.
        """
        index = {sid: i for i, sid in enumerate(self._sid)}
        children: dict[int, list[int]] = defaultdict(list)
        for i, parent in enumerate(self._parent):
            if parent in index:
                children[index[parent]].append(i)
        start, end = self._start, self._end
        per_name: dict[str, list] = {}
        for i, nid in enumerate(self._nid):
            duration = end[i] - start[i]
            kids = children.get(i)
            covered = (
                covered_length([(start[j], end[j]) for j in kids], start[i], end[i])
                if kids
                else 0.0
            )
            rec = per_name.setdefault(self.names[nid], [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += duration
            rec[2] += duration - covered
        enum_cache = None
        if self.enum_cache_source is not None:
            info = self.enum_cache_source.cache_info()
            enum_cache = {"hits": info.hits, "misses": info.misses, "currsize": info.currsize}
        return {
            "spans": per_name,
            "counts": self.counts(),
            "max_order": self.max_order,
            "enum_cache": enum_cache,
        }


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _counted(counter, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        next(counter)
        return fn(*args, **kwargs)

    return counted


def install(tracer: Tracer) -> None:
    """Wrap every traced function wherever regover's modules look it up."""
    modules = [importlib.import_module(f"regover.{name}") for name in MODULES]
    for layer, fnames in LAYERS.items():
        home = importlib.import_module(f"regover.{layer}")
        for fname in fnames:
            original = getattr(home, fname)
            wrapped = tracer.wrap(f"{layer}.{fname}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
            if fname == "enumerate_overpartitions":
                tracer.enum_cache_source = original

    qseries = importlib.import_module("regover.qseries")
    traced_series = qseries.pk_series

    def pk_series(k, order, *args, **kwargs):
        tracer.max_order = max(tracer.max_order, order)
        return traced_series(k, order, *args, **kwargs)

    qseries.pk_series = pk_series

    interval = importlib.import_module("regover.numerics").Interval
    for op in INTERVAL_OPS:
        setattr(interval, op, _counted(tracer._ops, vars(interval)[op]))
    for endpoint in ("lo", "hi"):
        prop = vars(interval)[endpoint]
        setattr(interval, endpoint, property(_counted(tracer._reads, prop.fget)))

