"""Span recording around racsim's public functions, and union-based self time.

The tracer wraps every public function of the layer modules at run time, from
outside the package: each call records one span (id, parent span, name, start,
end, thread, pass). Spans stay in memory while a pass runs and are moved into a
numpy array afterwards. Worker threads inherit the submitting call's span
through ``contextvars``, so a chunk sampled on a pool thread is a child of the
call that started the pool, and the two chunks of a two-worker call are
overlapping siblings.
"""

from __future__ import annotations

import contextlib
import contextvars
import inspect
import itertools
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

LAYERS = ("cli", "classical", "bell", "qrac", "qcore", "mzi", "concat")
PASS_SPAN = "bench.pass"

SPAN_DTYPE = np.dtype(
    [
        ("id", np.int64),
        ("parent", np.int64),
        ("name", np.int32),
        ("start_ns", np.int64),
        ("end_ns", np.int64),
        ("thread", np.int64),
        ("pass_id", np.int32),
    ]
)


class _ContextPool(ThreadPoolExecutor):
    """Thread pool that runs each task in a copy of the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class Tracer:
    """Wraps layer functions while installed; records spans and per-pass counters.

    ``observers`` maps a span name to ``f(arguments, result) -> {counter: amount}``
    for counts that come from a call's arguments or result (shots, bytes, nodes).
    Observers run after the span has ended.
    """

    def __init__(self, modules: dict, observers: dict | None = None):
        self.modules = modules
        self.observers = observers or {}
        self.names: list[str] = [PASS_SPAN]
        self.records: list[tuple] = []
        self.counters: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.pass_id = -1
        self._current = contextvars.ContextVar("racsim_span", default=-1)
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []
        # Wrappers and the name table are built once, so span name indices stay
        # valid across every install/uninstall cycle.
        self._wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = modules[layer]
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    self._wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)

    def _wrap(self, name: str, fn):
        name_idx = len(self.names)
        self.names.append(name)
        current, records, ids = self._current, self.records, self._ids
        observe = self.observers.get(name)
        signature = inspect.signature(fn) if observe else None
        clock, ident = time.perf_counter_ns, threading.get_ident

        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = current.get()
            token = current.set(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                current.reset(token)
                records.append((span_id, parent, name_idx, start, end, ident(), self.pass_id))
            if observe:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self._count(observe(bound.arguments, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, amounts: dict) -> None:
        with self._lock:
            totals = self.counters[self.pass_id]
            for key, amount in amounts.items():
                totals[key] += amount

    @contextlib.contextmanager
    def pass_span(self, pass_id: int):
        """Root span of one pass; the harness's own time in the pass is its self time."""
        self.pass_id = pass_id
        span_id = next(self._ids)
        token = self._current.set(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._current.reset(token)
            self.records.append((span_id, -1, 0, start, end, threading.get_ident(), pass_id))

    def install(self) -> None:
        """Replace each public layer function wherever a racsim module binds it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module in self.modules.values():
            for attr, obj in list(vars(module).items()):
                if id(obj) in self._wrappers:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, self._wrappers[id(obj)])
                elif obj is ThreadPoolExecutor:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, _ContextPool)

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    def take_spans(self) -> np.ndarray:
        """Move the recorded spans into one structured array, emptying the buffer."""
        spans = np.array(self.records, dtype=SPAN_DTYPE)
        self.records.clear()
        return spans


def parent_index(spans: np.ndarray) -> np.ndarray:
    """Row of each span's parent within ``spans``, or -1 for a root."""
    parent = np.full(len(spans), -1, dtype=np.int64)
    if len(spans) == 0:
        return parent
    order = np.argsort(spans["id"])
    ids = spans["id"][order]
    at = np.minimum(np.searchsorted(ids, spans["parent"]), len(ids) - 1)
    found = ids[at] == spans["parent"]
    parent[found] = order[at[found]]
    return parent


def self_times(spans: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per span: its duration minus the union of its children's intervals, in ns.

    Returns ``(self_ns, overlap_ns)``. ``overlap_ns`` is, per span, its children's
    summed durations minus their union, i.e. the time children ran in parallel.
    Summed over a tree, ``self - overlap`` equals the root's duration. Children
    are clipped to their parent's interval.
    """
    n = len(spans)
    start, end = spans["start_ns"], spans["end_ns"]
    self_ns = end - start
    overlap_ns = np.zeros(n, dtype=np.int64)
    parent = parent_index(spans)
    kids = np.flatnonzero(parent >= 0)
    if kids.size == 0:
        return self_ns, overlap_ns
    kids = kids[np.lexsort((start[kids], parent[kids]))]
    par = parent[kids]
    lo = np.maximum(start[kids], start[par])
    hi = np.maximum(np.minimum(end[kids], end[par]), lo)
    # Sweep each parent's children in start order: a child adds only the part that
    # lies past the furthest end its earlier siblings reached. Offsetting each
    # parent's group by `width` keeps one running maximum from crossing groups.
    first = np.concatenate(([True], par[1:] != par[:-1]))
    group = np.cumsum(first) - 1
    t0 = int(lo.min())
    width = int(hi.max()) - t0 + 1
    reach = np.maximum.accumulate(group * width + (hi - t0)) - group * width + t0
    before = np.concatenate(([t0], reach[:-1]))
    before[first] = t0
    covered = np.maximum(0, hi - np.maximum(lo, before))
    union = np.bincount(par, weights=covered, minlength=n).astype(np.int64)
    summed = np.bincount(par, weights=hi - lo, minlength=n).astype(np.int64)
    return self_ns - union, summed - union


def contained(spans: np.ndarray) -> bool:
    """True when every child span lies inside its parent's interval."""
    parent = parent_index(spans)
    kids = np.flatnonzero(parent >= 0)
    par = parent[kids]
    return bool(
        np.all(spans["start_ns"][kids] >= spans["start_ns"][par])
        and np.all(spans["end_ns"][kids] <= spans["end_ns"][par])
    )
