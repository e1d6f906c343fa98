"""The oracle on hand-built cases, and against the program on the same."""

import numpy as np

from perfbench.inputs import render
from perfbench.oracle import NumericOracle, WordOracle, judge
from repro import KeywordSpace, NumericDimension, SquidSystem, WordDimension

# At 20 bits a word coordinate keeps 5 letters, so all of these share one
# coordinate; only the exact post-filter tells them apart.
VOCAB = sorted(["computation", "computer", "compute", "comet", "network"])
KEYS = [
    ("computer", "network"),
    ("computation", "network"),
    ("compute", "comet"),
    ("comet", "computer"),
    ("network", "computation"),
]


def word_oracle():
    ids = {w: i for i, w in enumerate(VOCAB)}
    pairs = np.asarray([[ids[a], ids[b]] for a, b in KEYS])
    return WordOracle(VOCAB, pairs, live=len(KEYS))


def test_exact_word_is_not_its_five_letter_prefix():
    oracle = word_oracle()
    assert oracle.answer((("exact", "computer"), ("any",))) == {0}
    assert oracle.answer((("exact", "computation"), ("any",))) == {1}
    assert oracle.answer((("exact", "compute"), ("any",))) == {2}


def test_prefix_against_exact():
    oracle = word_oracle()
    assert oracle.answer((("prefix", "compute"), ("any",))) == {0, 2}
    assert oracle.answer((("prefix", "comp"), ("any",))) == {0, 1, 2}
    assert oracle.answer((("prefix", "com"), ("exact", "network"))) == {0, 1}
    assert oracle.answer((("any",), ("prefix", "comput"))) == {3, 4}
    assert oracle.answer((("prefix", "zzz"), ("any",))) == set()
    assert oracle.answer((("exact", "computers"), ("any",))) == set()


def test_words_compare_lower_cased():
    assert word_oracle().answer((("exact", "Computer"), ("prefix", "NET"))) == {0}


def test_live_mask_follows_publishes_and_unpublishes():
    oracle = word_oracle()
    oracle.alive[0] = False
    assert oracle.answer((("prefix", "comput"), ("any",))) == {1, 2}
    oracle.alive[0] = True
    assert oracle.answer((("prefix", "comput"), ("any",))) == {0, 1, 2}


def test_program_agrees_on_the_shared_coordinate_cases():
    space = KeywordSpace([WordDimension("a"), WordDimension("b")], bits=20)
    system = SquidSystem.create(space, n_nodes=8, seed=3, curve="hilbert", store="local")
    system.publish_many(KEYS, payloads=range(len(KEYS)))
    oracle = word_oracle()
    for terms in [
        (("exact", "computer"), ("any",)),
        (("prefix", "compute"), ("any",)),
        (("prefix", "com"), ("exact", "network")),
        (("any",), ("prefix", "comput")),
    ]:
        got = [e.payload for e in system.query(render(terms)).matches]
        assert sorted(got) == sorted(oracle.answer(terms)), terms


def test_numeric_ranges_are_inclusive_at_both_ends():
    rows = np.asarray([[256.0, 800.0], [1024.0, 2400.0], [1024.5, 100.0], [255.99, 800.0]])
    oracle = NumericOracle(rows)
    assert oracle.answer((("range", 256.0, 1024.0), ("any",))) == {0, 1}
    assert oracle.answer((("range", 256.0, 1024.0), ("range", 800.0, 800.0))) == {0}
    assert oracle.answer((("exact", 1024.5), ("any",))) == {2}
    assert oracle.answer((("any",), ("range", 100.0, 799.99))) == {2}


def test_program_agrees_on_range_ends():
    space = KeywordSpace([NumericDimension("m", 0, 4096), NumericDimension("c", 0, 4000)], 16)
    rows = np.asarray([[256.0, 800.0], [1024.0, 2400.0], [1024.5, 100.0], [255.99, 800.0]])
    system = SquidSystem.create(space, n_nodes=8, seed=5, curve="hilbert", store="local")
    system.publish_many([tuple(r) for r in rows], payloads=range(len(rows)))
    oracle = NumericOracle(rows)
    for terms in [
        (("range", 256.0, 1024.0), ("any",)),
        (("exact", 1024.5), ("range", 0.0, 100.0)),
    ]:
        got = [e.payload for e in system.query(render(terms)).matches]
        assert sorted(got) == sorted(oracle.answer(terms)), terms


def test_judge():
    truth = {1, 2, 3}
    assert judge(truth, [3, 1, 2], complete=True) == "ok"
    assert judge(truth, [1, 2], complete=True) == "wrong"  # missing, claimed complete
    assert judge(truth, [1, 2, 3, 4], complete=True) == "wrong"  # extra
    assert judge(truth, [1, 2, 2, 3], complete=True) == "wrong"  # duplicate
    assert judge(truth, [1, 2], complete=False) == "partial"  # honest partial
    assert judge(truth, [1, 4], complete=False) == "wrong"  # partial with an extra
    assert judge(truth, [1, 1], complete=False) == "wrong"  # partial with a duplicate
