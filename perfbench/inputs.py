"""Seeded input generation, independent of ``repro.workloads``.

Everything a workload feeds the program is made here from the run's seed,
so a change to the program's own generators cannot shift the inputs.  Queries
are kept as plain term tuples that the oracle reads directly; ``render``
turns them into the paper's query text for the program:

* ``("any",)`` — ``*``
* ``("exact", value)`` — a whole word or a numeric value
* ``("prefix", text)`` — ``text*``
* ``("range", low, high)`` — inclusive ``low-high``
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Input sizes.  ``paper`` is what the benchmark measures; ``tiny`` exists
#: for the benchmark's own smoke tests.
SCALES = {
    "paper": {
        "words": 4000, "keys": 100_000, "word_nodes": 5400, "word_bits": 20,
        "resources": 20_000, "resource_nodes": 200, "resource_bits": 16,
    },
    "tiny": {
        "words": 300, "keys": 3000, "word_nodes": 64, "word_bits": 20,
        "resources": 2000, "resource_nodes": 200, "resource_bits": 16,
    },
}

ZIPF_EXPONENT = 1.0

#: The vocabulary and its Zipf ranks are the same on every seed, like the
#: dictionary of one language; the seed draws the keys and the queries.
#: A vocabulary drawn per seed would move every figure with the luck of
#: which word came out most frequent.
VOCABULARY_SEED = 20030623

# Syllables compose the vocabulary so that words share prefixes the way
# natural vocabulary does ("com", "compu", "computer"); plain random letters
# would leave almost every prefix query with a single matching word.
SYLLABLES = (
    "com pu ter net work data base sys tem pro gram in for ma tion dis tri bu "
    "ted grid re source ser vice man age ment lo cal par al lel stor ing que ry "
    "sched ule clus ver an con de"
).split()

#: name -> (minimum, maximum, standard configuration values); the paper's
#: grid-resource attributes (memory MB, CPU MHz, bandwidth Mbps).
ATTRIBUTES = {
    "memory": (0.0, 4096.0, (128, 256, 512, 1024, 2048, 4096)),
    "cpu": (0.0, 4000.0, (400, 800, 1200, 1600, 2400, 3200)),
    "bandwidth": (0.0, 1000.0, (10, 100, 155, 622, 1000)),
}


def render(terms) -> str:
    """The paper's textual form of a term tuple."""
    parts = []
    for term in terms:
        kind = term[0]
        if kind == "any":
            parts.append("*")
        elif kind == "prefix":
            parts.append(f"{term[1]}*")
        elif kind == "range":
            parts.append(f"{term[1]!r}-{term[2]!r}")
        elif isinstance(term[1], str):
            parts.append(term[1])
        else:
            parts.append(repr(float(term[1])))
    return "(" + ", ".join(parts) + ")"


# ----------------------------------------------------------------------
# 2-D keyword space (Fig. 10 snapshot)
# ----------------------------------------------------------------------
@dataclass
class WordData:
    """A sorted vocabulary and keys as word-id pairs.

    ``pairs[i]`` is the key whose payload is ``i``; ids index ``vocab``,
    which is sorted, so every word sharing a prefix has an id in one
    contiguous run (the oracle relies on this).
    """

    vocab: list[str]
    pairs: np.ndarray  # (n, 2) int64
    n_initial: int

    def key(self, i: int) -> tuple[str, str]:
        a, b = self.pairs[i]
        return self.vocab[a], self.vocab[b]


def make_vocabulary(gen: np.random.Generator, size: int) -> list[str]:
    words: set[str] = set()
    while len(words) < size:
        n = int(gen.integers(2, 5))
        picks = gen.integers(0, len(SYLLABLES), n)
        words.add("".join(SYLLABLES[int(i)] for i in picks))
    return sorted(words)


def zipf_weights(size: int) -> np.ndarray:
    """Zipf probabilities of ranks ``0 .. size-1``."""
    weights = 1.0 / np.arange(1, size + 1) ** ZIPF_EXPONENT
    return weights / weights.sum()


def make_word_data(gen: np.random.Generator, scale: dict, extra: int) -> WordData:
    """``scale["keys"]`` distinct initial keys plus ``extra`` fresh ones.

    The fresh keys are not published at set-up; workloads publish them
    during the timed phase, so every key in the record is distinct.
    """
    fixed = np.random.default_rng(VOCABULARY_SEED)
    vocab = make_vocabulary(fixed, scale["words"])
    probs = np.empty(len(vocab))
    probs[fixed.permutation(len(vocab))] = zipf_weights(len(vocab))
    total = scale["keys"] + extra
    seen: set[int] = set()
    order: list[int] = []
    v = len(vocab)
    while len(order) < total:
        a = gen.choice(v, size=total, p=probs)
        b = gen.choice(v, size=total, p=probs)
        for code in (a * v + b).tolist():
            if code not in seen:
                seen.add(code)
                order.append(code)
                if len(order) == total:
                    break
    codes = np.asarray(order, dtype=np.int64)
    pairs = np.stack([codes // v, codes % v], axis=1)
    return WordData(vocab=vocab, pairs=pairs, n_initial=scale["keys"])


def word_query(gen: np.random.Generator, data: WordData, q2: bool):
    """One Q1 or Q2 query drawn the way the paper's generators draw them.

    Targets come from a uniformly chosen initial key, so they are
    frequency-weighted.  Q1: the first word, whole or as a 3-5 letter
    prefix, wildcard elsewhere.  Q2: a prefix of the first word and the
    second word whole or as a 3-letter prefix.
    """
    w1, w2 = data.key(int(gen.integers(0, data.n_initial)))
    if not q2:
        if gen.random() < 0.5 and len(w1) > 3:
            plen = int(gen.integers(3, min(6, len(w1))))
            return (("prefix", w1[:plen]), ("any",))
        return (("exact", w1), ("any",))
    plen = int(gen.integers(3, len(w1))) if len(w1) > 3 else len(w1)
    second = ("prefix", w2[:3]) if gen.random() < 0.5 and len(w2) > 3 else ("exact", w2)
    return (("prefix", w1[:plen]), second)


def distinct_word_queries(
    gen: np.random.Generator, data: WordData, count: int, q1_every: int = 4
) -> list:
    """``count`` distinct queries, a Q1 at every ``q1_every``-th place and Q2
    elsewhere (Q1, Q2, Q2, Q2, ... by default).

    Run one after another, Q1 queries take tens of milliseconds and Q2
    queries one or two, so the latencies form two clusters.  With three Q2
    to each Q1 the median falls inside the Q2 cluster and the 90th
    percentile near the middle of the Q1 cluster; an even mix would put the
    median in the gap between them, where it jumps with every run.
    """
    seen: set = set()
    out: list = []
    attempts = 0
    while len(out) < count:
        terms = word_query(gen, data, q2=len(out) % q1_every != 0)
        attempts += 1
        if terms in seen:
            if attempts > 200 * count:
                raise RuntimeError("cannot draw enough distinct queries")
            continue
        seen.add(terms)
        out.append(terms)
    return out


# ----------------------------------------------------------------------
# 3-D grid-resource space (Figs. 15-17 snapshot)
# ----------------------------------------------------------------------
def make_resources(gen: np.random.Generator, count: int) -> np.ndarray:
    """Resources drawn from standard configurations with up to 5% less
    than nominal (e.g. reported free memory); an ``(count, 3)`` array."""
    columns = []
    for lo, hi, configs in ATTRIBUTES.values():
        base = np.asarray(configs, dtype=float)[gen.choice(len(configs), size=count)]
        noise = 1.0 + gen.uniform(-0.05, 0.0, size=count)
        columns.append(np.clip(base * noise, lo, hi))
    return np.stack(columns, axis=1)


def _range_around(gen: np.random.Generator, attribute: str, value: float):
    """A range holding ``value`` and 10-60% of the attribute's domain,
    with ends rounded outwards to two decimals."""
    lo_bound, hi_bound, _ = ATTRIBUTES[attribute]
    width = float(gen.uniform(0.1, 0.6)) * (hi_bound - lo_bound)
    low = max(lo_bound, value - float(gen.uniform(0.2, 0.8)) * width)
    high = min(hi_bound, low + width)
    low = max(lo_bound, math.floor(min(low, value) * 100) / 100)
    high = min(hi_bound, math.ceil(max(high, value) * 100) / 100)
    return ("range", low, high)


def value_range_query(gen: np.random.Generator, resources: np.ndarray):
    """Q3 (value, range, *): memory pinned to a resource's exact value,
    cpu ranged around that resource's value (paper Fig. 15)."""
    row = resources[int(gen.integers(0, len(resources)))]
    return (("exact", float(row[0])), _range_around(gen, "cpu", float(row[1])), ("any",))


#: (range, range, range) queries that are the same on every seed.  Queries
#: of this form drawn from the seed sometimes trip the engine's hop budget
#: (see README, "Known fault"), which would make the failed share depend on
#: the seed; these fixed ones keep the class in the mix.
FIXED_RANGE_QUERIES = (
    (("range", 256.0, 1024.0), ("range", 800.0, 2400.0), ("range", 100.0, 622.0)),
    (("range", 1024.0, 4096.0), ("range", 1600.0, 4000.0), ("range", 155.0, 1000.0)),
    (("range", 100.0, 600.0), ("range", 300.0, 1300.0), ("range", 0.0, 200.0)),
    (("range", 1900.0, 4096.0), ("range", 0.0, 900.0), ("range", 500.0, 1000.0)),
)

#: A (range, range, range) query that trips the hop budget on every seed:
#: one local refinement yields ~2*10^4 sub-clusters, each its own work
#: entry, against a budget of 64 * 200 = 12800 entries.  Counted as failed.
FAULT_QUERY = (("range", 0.0, 1944.7), ("range", 0.0, 1193.9), ("range", 0.0, 312.1))
