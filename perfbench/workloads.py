"""The benchmark's four workloads, driven through the program's public API.

Each run builds its inputs from the seed, sets the system up several times
(``setup_s`` is the median), then measures whole rounds of operations until
``seconds`` have passed and at least ``min_rounds`` rounds are done.  A
round follows the workload's fixed ``PATTERN`` of operations:

* ``Q`` a query, ``F`` a fixed (range, range, range) query, ``X`` the fixed
  query that trips the hop budget;
* ``P`` a publish of a fresh key, ``U`` an unpublish of the oldest key the
  run published and has not yet removed;
* ``J`` a graceful join, ``L`` a graceful leave.

Every round holds the same operations, so the share of failed operations
does not depend on the seed or the run length.  Writes are spread through
the rounds so that ``update_p50_ms`` samples the whole timed phase.
Answers are kept and judged by the oracle after the timed phase.  Inputs
are drawn for ``max_rounds`` rounds and never reused; a run that needs more
stops with an error rather than repeating a query.
"""

from __future__ import annotations

import asyncio
import gc
import resource
import statistics
from collections import Counter, deque
from time import perf_counter

import numpy as np

import repro.core.loadbalance as loadbalance
from perfbench import inputs
from perfbench.oracle import NumericOracle, WordOracle, judge
from repro import KeywordSpace, NumericDimension, SquidSystem, WordDimension
from repro.net import QueryClient, QueryServer

#: Join-time load-balancing probes per joining node (the paper's build).
JOIN_SAMPLES = 6


class Run:
    """What one run measured and what the oracle must check."""

    def __init__(self) -> None:
        self.setup_times: list[float] = []
        self.elapsed = 0.0
        self.rounds = 0
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.query_latency: list[float] = []
        self.update_latency: list[float] = []
        #: (terms, raw answer, decoder) per query, in completion order; the
        #: decoder turns the raw answer into (payloads, keys, complete)
        #: after the timed phase.
        self.answers: list[tuple] = []
        #: (issue order, messages, processing nodes, plan-cache hit,
        #: result-cache hit) per query.
        self.costs: list[tuple] = []
        #: Queries issued in the first ``min_rounds`` rounds; the cost
        #: metrics average these, which every run of a seed executes alike.
        self.cost_queries = 0
        #: Live-set changes interleaved with answers, for the oracle replay:
        #: ("publish", payload), ("unpublish", payload), ("answer", index).
        self.events: list[tuple] = []
        self.problems: list[str] = []
        #: Answers that came back incomplete (the hop budget tripped).
        self.budget_exhausted = 0

    def add_answer(self, terms, raw, decoder, cost, order=None) -> None:
        self.events.append(("answer", len(self.answers)))
        self.answers.append((terms, raw, decoder))
        self.costs.append((len(self.costs) if order is None else order,) + tuple(cost))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _decode_result(result):
    """(payloads, keys, complete) of an in-process QueryResult."""
    matches = result.matches
    return [e.payload for e in matches], [tuple(e.key) for e in matches], result.complete


def _decode_served(result):
    """(payloads, keys, complete) of a served JSON answer."""
    matches = result["matches"]
    return [m["payload"] for m in matches], [tuple(m["key"]) for m in matches], result["complete"]


class Workload:
    """Shared driver: inputs, repeated set-up, timed rounds, oracle check."""

    name = ""
    PATTERN = ""
    min_rounds = 1
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setup_repeats = 3
    #: Rounds of inputs drawn per second of run length, far above today's
    #: rate (keyword-2d and served-2d do about 7 rounds a second), so that
    #: a much faster program still finds fresh inputs.
    ROUNDS_PER_SECOND = 100

    def __init__(self, seed: int, seconds: float, scale: str) -> None:
        self.seconds = seconds
        self.scale = inputs.SCALES[scale]
        self.max_rounds = self.ROUNDS_PER_SECOND * max(1, int(seconds)) + self.min_rounds
        data, queries, self.builds = np.random.SeedSequence(seed).spawn(3)
        self.data_gen = np.random.default_rng(data)
        self.query_gen = np.random.default_rng(queries)
        #: Build randomness (ring identifiers, join probes) of the set-up
        #: being built; see :meth:`setup`.
        self.build_seed: np.random.SeedSequence | None = None
        self.run = Run()
        self.system: SquidSystem | None = None
        self.node_ids: list[int] = []
        self.queries_issued = 0
        self.publishes = 0
        self.outstanding: deque[int] = deque()

    @property
    def round_size(self) -> int:
        return len(self.PATTERN)

    def count(self, ops: str) -> int:
        """How many operations of the given letters one round holds."""
        return sum(self.PATTERN.count(op) for op in ops)

    # -- inputs the subclasses provide -----------------------------------
    def build(self) -> SquidSystem:
        raise NotImplementedError

    def next_query(self, kind: str):
        """(terms, origin pick) of the next query of the given letter."""
        raise NotImplementedError

    def fresh(self, i: int) -> tuple[tuple, int]:
        """(key, payload) of the ``i``-th publish of the run."""
        raise NotImplementedError

    def key_of(self, payload: int) -> tuple:
        raise NotImplementedError

    def oracle(self):
        raise NotImplementedError

    # -- set-up ---------------------------------------------------------
    def _grow(self, space, keys, n_nodes, result_cache=False) -> SquidSystem:
        """Bootstrap ring, bulk publish, join-time load balancing."""
        gen = np.random.default_rng(self.build_seed)
        system = SquidSystem.create(
            space, n_nodes=max(8, n_nodes // 20), seed=gen, curve="hilbert",
            engine="optimized", store="local", result_cache=result_cache,
        )
        system.publish_many(keys, payloads=range(len(keys)))
        loadbalance.grow_with_join_lb(system, n_nodes, samples=JOIN_SAMPLES, rng=gen)
        return system

    def setup(self, repeats: int) -> None:
        """Set up ``repeats`` times, each from its own build stream.

        How long joins with load balancing take depends on the ring they
        draw, so the median over several rings is steadier than one ring
        timed several times.  The stream-0 system is built last and is the
        one measured, so every run of a seed, traced or not, measures the
        same system.  The previous set-up is freed before the next starts,
        so every set-up runs beside the same live objects.
        """
        system = None
        for child in reversed(self.builds.spawn(repeats)):
            self.build_seed = child
            self.system = system = None
            gc.collect()
            start = perf_counter()
            system = self.build()
            self.run.setup_times.append(perf_counter() - start)
            self.system = system
        self.node_ids = self.system.overlay.node_ids()

    # -- timed phase ----------------------------------------------------
    def next_round(self) -> None:
        """Refuse to start a round whose inputs were not drawn."""
        if self.run.rounds >= self.max_rounds:
            raise RuntimeError(f"{self.name}: inputs for {self.max_rounds} rounds used up")

    def measure(self) -> None:
        run = self.run
        start = perf_counter()
        while True:
            self.next_round()
            for op in self.PATTERN:
                self.operate(op, run.rounds)
            run.rounds += 1
            if run.rounds == self.min_rounds:
                run.cost_queries = len(run.costs)
            if run.rounds >= self.min_rounds and perf_counter() - start >= self.seconds:
                break
        run.elapsed = perf_counter() - start

    def operate(self, op: str, r: int) -> None:
        if op in "PU":
            self.write(op)
        else:
            self.query(*self.next_query(op))

    def query(self, terms, origin_pick: int) -> None:
        """One timed in-process query from a seeded origin."""
        ids = self.node_ids
        text = inputs.render(terms)
        start = perf_counter()
        result = self.system.query(text, origin=ids[origin_pick % len(ids)])
        self.run.query_latency.append(perf_counter() - start)
        self.run.attempted["query"] += 1
        stats = result.stats
        self.run.add_answer(terms, result, _decode_result, (
            stats.messages, stats.processing_node_count,
            stats.plan_cache_hit, stats.result_cache_hit,
        ))

    def write(self, op: str) -> None:
        """Publish a fresh key, or unpublish the oldest outstanding one;
        an unpublish must remove exactly the one element its publish added."""
        run, system = self.run, self.system
        if op == "P":
            key, payload = self.fresh(self.publishes)
            self.publishes += 1
            start = perf_counter()
            system.publish(key, payload=payload)
            run.update_latency.append(perf_counter() - start)
            run.attempted["publish"] += 1
            run.events.append(("publish", payload))
            self.outstanding.append(payload)
            return
        payload = self.outstanding.popleft()
        start = perf_counter()
        removed = system.unpublish(self.key_of(payload), payload=payload)
        run.update_latency.append(perf_counter() - start)
        run.attempted["unpublish"] += 1
        run.events.append(("unpublish", payload))
        if removed != 1:
            run.failed["unpublish"] += 1
            run.problems.append(f"unpublish of payload {payload} removed {removed}")

    # -- checking -------------------------------------------------------
    def check(self) -> tuple[bool, int]:
        """Judge every answer; returns (correct, failed operations).

        A failed operation that is an honest partial answer leaves the run
        correct; a wrong answer or a lost write does not."""
        run = self.run
        truth = self.oracle()
        for event, ref in run.events:
            if event == "publish":
                truth.alive[ref] = True
                continue
            if event == "unpublish":
                truth.alive[ref] = False
                continue
            terms, raw, decoder = run.answers[ref]
            payloads, keys, complete = decoder(raw)
            run.budget_exhausted += not complete
            verdict = judge(truth.answer(terms), payloads, complete)
            if verdict == "ok" and any(
                tuple(k) != self.key_of(p) for p, k in zip(payloads, keys)
            ):
                verdict = "wrong"
            if verdict != "ok":
                run.failed["query"] += 1
                if verdict == "wrong":
                    run.problems.append(f"wrong answer to {inputs.render(terms)}")
        # Graceful churn loses nothing: the system stores every live key once.
        live = int(truth.alive.sum())
        if self.system.total_elements() != live:
            run.problems.append(f"{self.system.total_elements()} elements stored, {live} live")
        return not run.problems, sum(run.failed.values())

    def execute(self, repeats: int | None = None) -> Run:
        self.setup(repeats or self.setup_repeats)
        self.measure()
        return self.run


# ----------------------------------------------------------------------
# Keyword workloads (2-D word space)
# ----------------------------------------------------------------------
def word_space(bits: int) -> KeywordSpace:
    return KeywordSpace([WordDimension("kw1"), WordDimension("kw2")], bits=bits)


class KeywordBase(Workload):
    """The Fig. 10 snapshot: 10^5 distinct keys over a Zipf vocabulary,
    with a stream of distinct Q1/Q2 queries from seeded origins."""

    #: A Q1 at every this many queries, Q2 elsewhere.
    Q1_EVERY = 4

    def __init__(self, seed, seconds, scale) -> None:
        super().__init__(seed, seconds, scale)
        self.n_fresh = self.max_rounds * self.count("P")
        self.data = inputs.make_word_data(self.data_gen, self.scale, self.n_fresh)
        self.initial_keys = [self.data.key(i) for i in range(self.data.n_initial)]
        self.space = word_space(self.scale["word_bits"])
        self.pool = inputs.distinct_word_queries(
            self.query_gen, self.data, self.pool_size(), self.Q1_EVERY
        )
        self.origins = self.query_gen.integers(0, 2**31, size=len(self.pool))

    def pool_size(self) -> int:
        return self.max_rounds * self.count("Q")

    def build(self) -> SquidSystem:
        return self._grow(self.space, self.initial_keys, self.scale["word_nodes"])

    def next_query(self, kind: str):
        j = self.queries_issued
        self.queries_issued += 1
        return self.pool[j], int(self.origins[j])

    def fresh(self, i: int) -> tuple[tuple, int]:
        payload = self.data.n_initial + i
        return self.data.key(payload), payload

    def key_of(self, payload: int) -> tuple:
        return self.data.key(payload)

    def oracle(self):
        return WordOracle(self.data.vocab, self.data.pairs, self.data.n_initial)


class KeywordWorkload(KeywordBase):
    """keyword-2d: distinct Q1/Q2 queries; scan and post-filter dominate."""

    name = "keyword-2d"
    PATTERN = "QQQQQQPQQQQQQU"
    min_rounds = 20


class ChurnWorkload(KeywordBase):
    """churn-mix: a Zipf-skewed trace of repeated queries through the
    result cache, interleaved with publishes, unpublishes of earlier
    publishes, and graceful joins and leaves."""

    name = "churn-mix"
    PATTERN = "QQPQQJQQPQQUQQLQQPQQ"
    min_rounds = 40
    DISTINCT_QUERIES = 400
    #: Today's rate is about 12 rounds a second.
    ROUNDS_PER_SECOND = 200

    def __init__(self, seed, seconds, scale) -> None:
        super().__init__(seed, seconds, scale)
        gen = self.query_gen
        # The trace keeps the pool's class rhythm (Q1, Q2, Q2, Q2) and picks
        # within each class by a Zipf(1.0) popularity rank over that class's
        # queries, in the order the pool drew them.  One rank over the whole
        # pool would let one seed's most popular query be a Q1, which touches
        # a hundred nodes and is invalidated by most joins and leaves, where
        # another seed's is a cheap Q2.
        n_queries = self.max_rounds * self.count("Q")
        is_q1 = np.arange(len(self.pool)) % self.Q1_EVERY == 0
        slot_is_q1 = np.arange(n_queries) % self.Q1_EVERY == 0
        self.trace = np.empty(n_queries, dtype=np.int64)
        for flag in (True, False):
            members = np.flatnonzero(is_q1 == flag)
            slots = np.flatnonzero(slot_is_q1 == flag)
            ranks = gen.choice(len(members), size=len(slots), p=inputs.zipf_weights(len(members)))
            self.trace[slots] = members[ranks]
        self.origins = gen.integers(0, 2**31, size=n_queries)
        self.join_ids = gen.integers(0, 2 ** (2 * self.scale["word_bits"]), size=self.max_rounds)
        self.leave_picks = gen.integers(0, 2**31, size=self.max_rounds)

    def pool_size(self) -> int:
        return self.DISTINCT_QUERIES

    def build(self) -> SquidSystem:
        return self._grow(
            self.space, self.initial_keys, self.scale["word_nodes"], result_cache=True
        )

    def next_query(self, kind: str):
        q = self.queries_issued
        self.queries_issued += 1
        return self.pool[self.trace[q]], int(self.origins[q])

    def fresh(self, i: int) -> tuple[tuple, int]:
        payload = self.data.n_initial + i
        return self.data.key(payload), payload

    def operate(self, op: str, r: int) -> None:
        system = self.system
        if op == "J":
            node = int(self.join_ids[r])
            while node in system.overlay.nodes:
                node = (node + 1) % system.overlay.space
            system.add_node(node)
        elif op == "L":
            ids = self.node_ids
            system.remove_node(ids[int(self.leave_picks[r]) % len(ids)])
        else:
            super().operate(op, r)
            return
        self.run.attempted["join" if op == "J" else "leave"] += 1
        self.node_ids = system.overlay.node_ids()


class ServedWorkload(KeywordBase):
    """served-2d: the keyword-2d system behind QueryServer on loopback.

    Two connections form a closed loop over each round's requests, Q1 and
    Q2 in even numbers, sent in a seeded random order: each connection
    takes the round's next request when its previous answer is in.  A Q2
    that runs beside a Q1 on the other connection waits behind the Q1's
    work, so most requests are slow and the median lies among them.  (With
    one Q1 to three Q2, as on keyword-2d, about half the requests are
    unhindered Q2 and the median falls in the gap between the two kinds.)
    The round's publish and unpublish run in process once both connections
    are idle, so every served answer sees one well-defined live set."""

    name = "served-2d"
    PATTERN = "QQQQQQQQPU"
    Q1_EVERY = 2
    min_rounds = 20
    CONNECTIONS = 2

    def __init__(self, seed, seconds, scale) -> None:
        super().__init__(seed, seconds, scale)
        #: Client-observed latency of every request, summed (for net.wire).
        self.client_seconds = 0.0

    def measure(self) -> None:
        asyncio.run(self._serve())

    async def _serve(self) -> None:
        run = self.run
        server = QueryServer(self.system)
        await server.start()
        clients = []
        try:
            for _ in range(self.CONNECTIONS):
                clients.append(await QueryClient("127.0.0.1", server.port).connect())
            per_round = self.count("Q")
            start = perf_counter()
            while True:
                self.next_round()
                first = run.rounds * per_round
                batch = [(first + i, *self.next_query("Q")) for i in range(per_round)]
                requests = deque(batch[i] for i in self.query_gen.permutation(per_round))
                await asyncio.gather(*(self._send(client, requests) for client in clients))
                for op in self.PATTERN.replace("Q", ""):
                    self.write(op)
                run.rounds += 1
                if run.rounds >= self.min_rounds and perf_counter() - start >= self.seconds:
                    break
            run.elapsed = perf_counter() - start
            run.cost_queries = per_round * self.min_rounds
        finally:
            for client in clients:
                await client.close()
            await server.close()

    async def _send(self, client, requests: deque) -> None:
        run = self.run
        while requests:
            order, terms, origin_pick = requests.popleft()
            origin = self.node_ids[origin_pick % len(self.node_ids)]
            start = perf_counter()
            body = await client.query(inputs.render(terms), origin=origin)
            took = perf_counter() - start
            run.query_latency.append(took)
            self.client_seconds += took
            run.attempted["query"] += 1
            stats = body["stats"]
            run.add_answer(terms, body["result"], _decode_served, (
                stats["messages"], stats["processing_nodes"],
                stats["plan_cache_hit"], stats["result_cache_hit"],
            ), order=order)


# ----------------------------------------------------------------------
# range-3d (3-D grid-resource space)
# ----------------------------------------------------------------------
def resource_space(bits: int) -> KeywordSpace:
    return KeywordSpace(
        [NumericDimension(n, lo, hi) for n, (lo, hi, _) in inputs.ATTRIBUTES.items()],
        bits=bits,
    )


class RangeWorkload(Workload):
    """range-3d: seeded (value, range, *) queries and fixed (range, range,
    range) ones; refinement and work-entry handling dominate, and one
    fixed query carries the hop-budget fault in every round."""

    name = "range-3d"
    # 120 seeded queries with the 4 fixed range queries spread between them
    # and the fault query last; 10 publish/unpublish pairs.  The fault query
    # takes about a second, so many seeded queries per round keep the
    # latency percentiles from resting on a few hundred samples.
    PATTERN = (("Q" * 12 + "PU") * 2 + "F") * 4 + ("Q" * 12 + "PU") * 2 + "X"
    min_rounds = 3
    # A set-up takes half a second here and swings by half with the ring
    # drawn; more of them steady the median.
    setup_repeats = 9
    #: Today's rate is about a quarter of a round a second.
    ROUNDS_PER_SECOND = 5

    def __init__(self, seed, seconds, scale) -> None:
        super().__init__(seed, seconds, scale)
        n = self.scale["resources"]
        self.n_initial = n
        self.n_fresh = self.max_rounds * self.count("P")
        self.rows = inputs.make_resources(self.data_gen, n + self.n_fresh)
        self.keys = [tuple(float(v) for v in row) for row in self.rows]
        self.space = resource_space(self.scale["resource_bits"])
        self.seeded = [
            inputs.value_range_query(self.query_gen, self.rows[:n])
            for _ in range(self.max_rounds * self.count("Q"))
        ]
        self.origins = self.query_gen.integers(0, 2**31, size=self.max_rounds * self.round_size)
        self.issued = Counter()

    def build(self) -> SquidSystem:
        return self._grow(self.space, self.keys[: self.n_initial], self.scale["resource_nodes"])

    def next_query(self, kind: str):
        origin = int(self.origins[self.queries_issued])
        self.queries_issued += 1
        i = self.issued[kind]
        self.issued[kind] += 1
        if kind == "X":
            return inputs.FAULT_QUERY, origin
        if kind == "F":
            return inputs.FIXED_RANGE_QUERIES[i % len(inputs.FIXED_RANGE_QUERIES)], origin
        return self.seeded[i], origin

    def fresh(self, i: int) -> tuple[tuple, int]:
        payload = self.n_initial + i
        return self.keys[payload], payload

    def key_of(self, payload: int) -> tuple:
        return self.keys[payload]

    def oracle(self):
        truth = NumericOracle(self.rows)
        truth.alive[self.n_initial:] = False
        return truth


WORKLOADS = {
    cls.name: cls
    for cls in (KeywordWorkload, RangeWorkload, ChurnWorkload, ServedWorkload)
}


def metrics(workload: Workload) -> dict[str, float]:
    """The end-to-end metrics of an untraced run."""
    run = workload.run
    q = np.asarray(run.query_latency) * 1e3
    costs = np.asarray(run.costs, dtype=float)
    costs = costs[costs[:, 0] < run.cost_queries]
    return {
        "setup_s": statistics.median(run.setup_times),
        "ops_per_s": sum(run.attempted.values()) / run.elapsed,
        "query_p50_ms": float(np.percentile(q, 50)),
        "query_p90_ms": float(np.percentile(q, 90)),
        "update_p50_ms": statistics.median(run.update_latency) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
        "messages_per_query": float(costs[:, 1].mean()),
        "processing_nodes_per_query": float(costs[:, 2].mean()),
    }
