"""The name matcher: normalized n-gram overlap.

"We found this matcher to be particularly helpful for properly ranking
schemas containing abbreviated terms, alternate grammatical forms, and
delimiter characters not in the original query."

* abbreviations — handled by abbreviation expansion plus the fact that
  an abbreviation's n-grams are usually a subset of the full word's;
* alternate grammatical forms — shared stems dominate the weighted
  n-gram overlap (``diagnosis`` / ``diagnoses``);
* delimiters — normalization strips them before n-grams are taken.

Similarity between two element names is the max of two views:

* *whole-string*: weighted n-gram overlap of the fully squashed names
  (handles names that cannot be split, e.g. ``patientheight``);
* *word-aligned*: each side's words greedily aligned to the other
  side's best-matching word, averaged symmetrically (handles compound
  vs. single-word names, e.g. ``patient height`` vs ``height``).
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

from repro.matching.base import Matcher, SimilarityMatrix, fill_columns
from repro.matching.ngram import weighted_ngram_similarity
from repro.matching.normalize import analysed_words
from repro.model.query import QueryGraph
from repro.model.schema import Schema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.matching.profile import MatchScratch, SchemaMatchProfile


@lru_cache(maxsize=65536)
def _word_similarity(a: str, b: str) -> float:
    return weighted_ngram_similarity(a, b)


def name_similarity(a_words: tuple[str, ...],
                    b_words: tuple[str, ...]) -> float:
    """Similarity of two normalized word tuples in [0, 1]."""
    if not a_words or not b_words:
        return 0.0
    whole = _word_similarity("".join(a_words), "".join(b_words))
    if len(a_words) == 1 and len(b_words) == 1:
        return whole
    forward = sum(max(_word_similarity(a, b) for b in b_words)
                  for a in a_words) / len(a_words)
    backward = sum(max(_word_similarity(b, a) for a in a_words)
                   for b in b_words) / len(b_words)
    aligned = (forward + backward) / 2.0
    return max(whole, aligned)


class NameMatcher(Matcher):
    """Scores element pairs by n-gram overlap of normalized names.

    ``threshold`` zeroes scores below a noise floor: every pair of
    English words shares a few single letters, and keeping that haze in
    the matrix would pollute the tightness-of-fit aggregates.
    """

    name = "name"

    def __init__(self, threshold: float = 0.25, expand: bool = True) -> None:
        if not 0.0 <= threshold < 1.0:
            raise ValueError(f"threshold must be in [0, 1), got {threshold}")
        self._threshold = threshold
        self._expand = expand

    def match(self, query: QueryGraph, candidate: Schema,
              profile: "SchemaMatchProfile | None" = None,
              scratch: "MatchScratch | None" = None) -> SimilarityMatrix:
        matrix = self.empty_matrix(query, candidate,
                                   profile=profile, scratch=scratch)
        query_pairs = self._query_pairs(query, scratch)
        if profile is None:
            # Reference path: every (query row, candidate column) cell
            # scored on its own — the golden the fast path is held to.
            candidate_pairs = [
                (path, analysed_words(name, self._expand))
                for path, name, _kind in self.candidate_elements(candidate)
            ]
            for row_label, query_words in query_pairs:
                if not query_words:
                    continue
                for col_label, cand_words in candidate_pairs:
                    if not cand_words:
                        continue
                    score = name_similarity(query_words, cand_words)
                    if score >= self._threshold:
                        matrix.set(row_label, col_label, min(score, 1.0))
            return matrix
        # Fast path: a column depends only on the candidate element's
        # words, and element names repeat across the candidate pool, so
        # each distinct word tuple is scored against the query rows once
        # per search and every later column with those words is a copy.
        words_of = (profile.words_expanded if self._expand
                    else profile.words_plain)
        columns = (scratch.name_columns.setdefault(self, {})
                   if scratch is not None else {})
        fill_columns(matrix, query_pairs,
                     map(words_of.__getitem__, profile.element_paths),
                     columns, name_similarity, self._threshold)
        return matrix

    def _query_pairs(self, query: QueryGraph,
                     scratch: "MatchScratch | None"
                     ) -> list[tuple[str, tuple[str, ...]]]:
        """(label, normalized words) per query element, memoized per
        search so the normalization runs once, not once per candidate."""
        key = (self.name, self._expand)
        if scratch is not None:
            cached = scratch.matcher_memo.get(key)
            if cached is not None:
                return cached  # type: ignore[return-value]
        pairs = [
            (label, analysed_words(name, self._expand))
            for label, name in self.query_elements(query)
        ]
        if scratch is not None:
            scratch.matcher_memo[key] = pairs
        return pairs
