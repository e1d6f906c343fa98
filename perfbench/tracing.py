"""Layer spans recorded from the benchmark's own files.

:class:`SpanTracer` wraps the program's public functions where their
callers look them up (class attributes for methods, module globals for
functions), records one span per call (name, start, end, parent span, query
id) in flat arrays, and keeps the whole log in memory until the run ends.
A span's *self time* is its duration minus the durations of its direct
children; summed per layer, self times plus ``other`` (traced wall time in
no span) account for the whole traced wall time of a sequential run.
"""

from __future__ import annotations

import contextvars
import functools
import types
from array import array
from time import perf_counter

import numpy as np

_INHERITED = object()


class SpanTracer:
    """In-memory span log plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.kind = array("i")
        self.parent = array("q")
        self.qid = array("q")
        self.start = array("d")
        self.end = array("d")
        #: Counts gathered at span boundaries (matches that passed, ...).
        self.counts: dict[str, float] = {}
        self._current = contextvars.ContextVar("perfbench_span", default=-1)
        #: Id of the query whose work is running (-1: none), stamped on
        #: every span; context-local, so concurrent served requests keep
        #: their own.
        self._query = contextvars.ContextVar("perfbench_query", default=-1)
        self._queries = 0
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _open(self, nid: int) -> int:
        idx = len(self.kind)
        self.kind.append(nid)
        self.parent.append(self._current.get())
        self.qid.append(self._query.get())
        self.end.append(0.0)
        self.start.append(perf_counter())
        return idx

    def wrap(self, name: str, fn, after=None):
        """A synchronous wrapper recording span ``name`` around ``fn``.

        ``after(result)`` runs outside the span to gather counts.
        """
        nid = self._name_id(name)
        current = self._current
        end = self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            token = current.set(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                current.reset(token)
            if after is not None:
                after(out)
            return out

        return traced

    def wrap_async(self, name: str, fn):
        """Like :meth:`wrap` for a coroutine function that serves one
        query.  The span covers every await; the time the coroutine spends
        suspended (while other requests run) is added to the count
        ``<name>.wait_s``, so that it can be told apart from the span's own
        work."""
        nid = self._name_id(name)
        current = self._current
        end = self.end
        waited_name = f"{name}.wait_s"

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            qtoken = self._query.set(self._next_query())
            idx = self._open(nid)
            token = current.set(idx)
            waited = [0.0]
            try:
                return await _timed_await(fn(*args, **kwargs), waited)
            finally:
                end[idx] = perf_counter()
                current.reset(token)
                self._query.reset(qtoken)
                self.count(waited_name, waited[0])

        return traced

    def _next_query(self) -> int:
        self._queries += 1
        return self._queries - 1

    def stamp_queries(self, fn):
        """Give every call of ``fn`` (one query) a new query id."""

        @functools.wraps(fn)
        def stamped(*args, **kwargs):
            token = self._query.set(self._next_query())
            try:
                return fn(*args, **kwargs)
            finally:
                self._query.reset(token)

        return stamped

    def wrap_generator(self, name: str, fn, counter: str):
        """Span around a generator function *including its iteration*.

        The generator is drained inside the span and its items are handed
        on as an iterator, so the consumer's own work between items is not
        charged to this span.
        """

        def drain(*args, **kwargs):
            return list(fn(*args, **kwargs))

        inner = self.wrap(name, drain, after=lambda items: self.count(counter, len(items)))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return iter(inner(*args, **kwargs))

        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        """Replace ``owner.attr``; :meth:`restore` undoes every patch."""
        self._patched.append((owner, attr, owner.__dict__.get(attr, _INHERITED)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "kind": np.frombuffer(self.kind, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "qid": np.frombuffer(self.qid, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``."""
        a = self.arrays()
        return summarize(self.names, a["kind"], a["parent"], a["start"], a["end"])

    def covered_seconds(self) -> float:
        a = self.arrays()
        return covered_seconds(a["start"], a["end"])

    def save(self, path) -> None:
        np.savez(path, names=np.asarray(self.names), **self.arrays())


@types.coroutine
def _timed_await(coro, waited: list[float]):
    """Drive ``coro`` exactly as ``await coro`` would, adding the time it
    spends suspended (from each yield to the event loop until it is
    resumed) to ``waited[0]``."""
    value, error = None, None
    while True:
        try:
            yielded = coro.send(value) if error is None else coro.throw(error)
        except StopIteration as stop:
            return stop.value
        suspended = perf_counter()
        try:
            value, error = (yield yielded), None
        except GeneratorExit:
            coro.close()
            raise
        except BaseException as exc:  # cancellation: hand it to the coroutine
            value, error = None, exc
        waited[0] += perf_counter() - suspended


def covered_seconds(start: np.ndarray, end: np.ndarray) -> float:
    """Length of the union of the span intervals: wall time inside any span.

    For a sequential run this equals the sum of all self times; where spans
    of concurrent requests overlap it counts each instant once.
    """
    if len(start) == 0:
        return 0.0
    order = np.argsort(start, kind="stable")
    s, e = start[order], end[order]
    reach = np.maximum.accumulate(e)
    first = np.empty(len(s), dtype=bool)
    first[0] = True
    first[1:] = s[1:] > reach[:-1]
    heads = np.flatnonzero(first)
    lasts = np.append(heads[1:] - 1, len(s) - 1)
    return float((reach[lasts] - s[heads]).sum())


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    duration = end - start
    has_parent = parent >= 0
    children = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(duration)
    )
    return duration - children


def summarize(names, kind, parent, start, end) -> dict[str, dict[str, float]]:
    own = self_times(parent, start, end)
    duration = end - start
    out = {}
    for nid, name in enumerate(names):
        mask = kind == nid
        out[name] = {
            "calls": int(mask.sum()),
            "total_s": float(duration[mask].sum()),
            "self_s": float(own[mask].sum()),
        }
    return out


def instrument(tracer: SpanTracer) -> None:
    """Patch every layer boundary the benchmark measures.

    Methods are patched on their classes and functions in the module that
    calls them, which is where the program looks each name up.
    """
    import repro.core.engine as engine_mod
    import repro.core.loadbalance as lb_mod
    import repro.net.server as server_mod
    from repro.core.engine import OptimizedEngine
    from repro.core.resultcache import ResultCache
    from repro.core.system import SquidSystem
    from repro.keywords.space import KeywordSpace
    from repro.net.transport import AsyncioTransport
    from repro.overlay.chord import ChordRing
    from repro.sfc.hilbert import HilbertCurve
    from repro.store.memory import LocalStore

    t = tracer

    def spans(owner, attrs, name, after=None):
        for attr in attrs:
            t.patch(owner, attr, t.wrap(name, getattr(owner, attr), after))

    def passed(ok):
        if ok:
            t.count("keywords.filter.passed")

    t.patch(SquidSystem, "query", t.stamp_queries(SquidSystem.query))
    spans(KeywordSpace, ["as_query", "region"], "keywords.parse")
    spans(KeywordSpace, ["matches"], "keywords.filter", passed)
    spans(HilbertCurve, ["encode", "encode_many"], "sfc.encode")
    spans(engine_mod, ["refine_cluster"], "sfc.refine",
          lambda out: t.count("sfc.refine.clusters_out", len(out)))
    spans(ChordRing, ["route"], "overlay.route",
          lambda out: t.count("overlay.route.hops", out.hops))
    spans(ChordRing, ["join", "leave"], "overlay.membership")
    t.patch(LocalStore, "scan_ranges", t.wrap_generator(
        "store.scan", LocalStore.scan_ranges, "store.scan.elements"))
    spans(LocalStore, ["add", "add_sorted_bulk", "pop_range"], "store.write")
    spans(OptimizedEngine, ["process_message"], "engine.process")
    spans(OptimizedEngine, ["begin_run", "finish_run"], "engine.run")
    spans(ResultCache, ["invalidate_point", "invalidate_points", "invalidate_range"],
          "resultcache.invalidate")
    spans(lb_mod, ["grow_with_join_lb"], "loadbalance.join")
    t.patch(AsyncioTransport, "submit",
            t.wrap_async("net.transport", AsyncioTransport.submit))
    spans(server_mod, ["encode_result"], "net.encode")
    t.patch(server_mod, "json", _TracedJson(t.wrap("net.encode", server_mod.json.dumps)))


class _TracedJson:
    """Stands in for the ``json`` module inside ``repro.net.server`` so the
    server's response encoding is timed and its request decoding is not."""

    def __init__(self, dumps) -> None:
        import json

        self.dumps = dumps
        self.loads = json.loads
        self.JSONDecodeError = json.JSONDecodeError
