"""Ground truth for every answer, written apart from the program.

The oracle reads the benchmark's own record of live keys (initial keys,
plus publishes, minus unpublishes) and its own term tuples (see
``inputs.render``); it never calls ``KeywordSpace.matches`` or
``SquidSystem.brute_force_matches``, which reuse the matcher under
measurement.  Word terms are whole lower-cased words or ``startswith``
prefixes; numeric terms are exact values or inclusive ranges.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np


class WordOracle:
    """Exact answers over word-id columns with a live mask."""

    def __init__(self, vocab: list[str], pairs: np.ndarray, live: int) -> None:
        self.vocab = [w.lower() for w in vocab]
        if self.vocab != sorted(self.vocab):
            raise ValueError("the oracle needs a sorted vocabulary")
        self.columns = [np.asarray(pairs[:, d]) for d in range(pairs.shape[1])]
        self.alive = np.zeros(len(pairs), dtype=bool)
        self.alive[:live] = True

    def _id_span(self, term) -> tuple[int, int]:
        """Half-open run of vocabulary ids a term accepts."""
        kind = term[0]
        if kind == "any":
            return 0, len(self.vocab)
        text = term[1].lower()
        lo = bisect_left(self.vocab, text)
        if kind == "exact":
            return lo, lo + 1 if lo < len(self.vocab) and self.vocab[lo] == text else lo
        if kind != "prefix":
            raise ValueError(f"word oracle cannot answer term {term!r}")
        # "{" sorts after "z": every word starting with ``text`` lies below.
        return lo, bisect_left(self.vocab, text + "{")

    def answer(self, terms) -> set[int]:
        mask = self.alive.copy()
        for column, term in zip(self.columns, terms):
            if term[0] != "any":
                lo, hi = self._id_span(term)
                mask &= (column >= lo) & (column < hi)
        return set(np.flatnonzero(mask).tolist())


class NumericOracle:
    """Exact answers over float columns: equality and inclusive ranges."""

    def __init__(self, rows: np.ndarray) -> None:
        self.rows = np.asarray(rows, dtype=float)
        self.alive = np.ones(len(self.rows), dtype=bool)

    def answer(self, terms) -> set[int]:
        mask = self.alive.copy()
        for d, term in enumerate(terms):
            column = self.rows[:, d]
            kind = term[0]
            if kind == "any":
                continue
            if kind == "exact":
                mask &= column == float(term[1])
            elif kind == "range":
                mask &= (column >= float(term[1])) & (column <= float(term[2]))
            else:
                raise ValueError(f"numeric oracle cannot answer term {term!r}")
        return set(np.flatnonzero(mask).tolist())


def judge(expected: set[int], payloads: list[int], complete: bool) -> str:
    """Classify one answer.

    ``"ok"``: complete, nothing missing, nothing extra, no duplicate.
    ``"partial"``: reported incomplete, and what it holds is a duplicate-
    free subset of the truth — an honest partial answer (a failed
    operation, not a wrong one).  ``"wrong"``: anything else.
    """
    got = set(payloads)
    honest = len(got) == len(payloads) and got <= expected
    if not honest:
        return "wrong"
    if complete and got == expected:
        return "ok"
    return "partial" if not complete else "wrong"
