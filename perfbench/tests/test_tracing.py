"""Self-time arithmetic on nested spans, and the patches' lifetime."""

import asyncio

import numpy as np
import pytest

from perfbench import tracing
from perfbench.tracing import SpanTracer, covered_seconds, self_times, summarize


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 6] > b [2, 3]; root > c [7, 9]
    parent = np.asarray([-1, 0, 1, 0])
    start = np.asarray([0.0, 1.0, 2.0, 7.0])
    end = np.asarray([10.0, 6.0, 3.0, 9.0])
    np.testing.assert_allclose(self_times(parent, start, end), [3.0, 4.0, 1.0, 2.0])
    # Self times of one tree sum to the root's duration.
    assert self_times(parent, start, end).sum() == pytest.approx(10.0)


def test_summary_groups_by_name():
    names = ["outer", "inner"]
    kind = np.asarray([0, 1, 1, 0])
    parent = np.asarray([-1, 0, 0, -1])
    start = np.asarray([0.0, 1.0, 3.0, 20.0])
    end = np.asarray([10.0, 2.0, 5.0, 21.0])
    out = summarize(names, kind, parent, start, end)
    assert out["outer"] == {"calls": 2, "total_s": 11.0, "self_s": 8.0}
    assert out["inner"] == {"calls": 2, "total_s": 3.0, "self_s": 3.0}


def test_covered_seconds_counts_overlap_once():
    start = np.asarray([0.0, 1.0, 2.0, 10.0, 11.0])
    end = np.asarray([5.0, 3.0, 6.0, 12.0, 11.5])
    assert covered_seconds(start, end) == pytest.approx(8.0)
    assert covered_seconds(np.empty(0), np.empty(0)) == 0.0


def test_wrapped_calls_nest_and_count():
    t = SpanTracer()

    def leaf(x):
        return x + 1

    wrapped_leaf = t.wrap("leaf", leaf, after=lambda out: t.count("leaf.sum", out))

    def middle():
        return wrapped_leaf(1) + wrapped_leaf(2)

    assert t.wrap("middle", middle)() == 5
    a = t.arrays()
    assert [t.names[k] for k in a["kind"]] == ["middle", "leaf", "leaf"]
    assert a["parent"].tolist() == [-1, 0, 0]
    assert t.counts["leaf.sum"] == 5
    s = t.summary()
    total = s["middle"]["total_s"]
    assert s["middle"]["self_s"] + s["leaf"]["self_s"] == pytest.approx(total)


def test_generator_span_covers_iteration():
    t = SpanTracer()

    def gen(n):
        yield from range(n)

    assert list(t.wrap_generator("scan", gen, "scan.items")(4)) == [0, 1, 2, 3]
    assert t.counts["scan.items"] == 4
    assert t.summary()["scan"]["calls"] == 1


def test_async_span_reports_its_waiting_apart():
    t = SpanTracer()
    work = t.wrap("work", lambda: sum(range(20_000)))

    async def request():
        work()
        await asyncio.sleep(0.05)
        work()
        return 7

    traced = t.wrap_async("request", request)
    assert asyncio.run(traced()) == 7
    s = t.summary()
    waited = t.counts["request.wait_s"]
    assert waited >= 0.045
    assert s["request"]["self_s"] - waited == pytest.approx(0.0, abs=0.005)
    assert t.arrays()["parent"].tolist() == [-1, 0, 0]


def test_async_span_passes_cancellation_on():
    t = SpanTracer()
    seen = []

    async def request():
        try:
            await asyncio.sleep(10)
        except asyncio.CancelledError:
            seen.append("cancelled")
            raise

    async def main():
        task = asyncio.ensure_future(t.wrap_async("request", request)())
        await asyncio.sleep(0.01)
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task

    asyncio.run(main())
    assert seen == ["cancelled"]
    assert t.counts["request.wait_s"] > 0


def test_spans_carry_their_query_id():
    t = SpanTracer()
    leaf = t.wrap("leaf", lambda: None)

    def query():
        leaf()
        leaf()

    stamped = t.stamp_queries(query)
    leaf()
    stamped()
    stamped()
    assert t.arrays()["qid"].tolist() == [-1, 0, 0, 1, 1]


def test_instrument_restores_every_patch():
    from repro.core.engine import OptimizedEngine
    from repro.keywords.space import KeywordSpace
    from repro.store.memory import LocalStore

    before = (KeywordSpace.matches, OptimizedEngine.process_message, LocalStore.scan_ranges)
    t = SpanTracer()
    tracing.instrument(t)
    assert KeywordSpace.matches is not before[0]
    t.restore()
    assert (KeywordSpace.matches, OptimizedEngine.process_message,
            LocalStore.scan_ranges) == before
    assert "scan_ranges" not in LocalStore.__dict__
