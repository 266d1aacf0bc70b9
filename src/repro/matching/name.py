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

from repro.matching.base import (
    Column,
    ColumnMatcher,
    SimilarityMatrix,
    column_from_cells,
    distinct_rows,
)
from repro.matching.ngram import weighted_ngram_similarity
from repro.matching.normalize import analysed_words
from repro.model.query import QueryGraph
from repro.model.schema import Schema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.matching.profile import SchemaMatchProfile


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


class NameMatcher(ColumnMatcher):
    """Scores element pairs by n-gram overlap of normalized names.

    ``threshold`` zeroes scores below a noise floor: every pair of
    English words shares a few single letters, and keeping that haze in
    the matrix would pollute the tightness-of-fit aggregates.

    Column key: the element's analysed words.
    """

    name = "name"

    def __init__(self, threshold: float = 0.25, expand: bool = True) -> None:
        if not 0.0 <= threshold < 1.0:
            raise ValueError(f"threshold must be in [0, 1), got {threshold}")
        self._threshold = threshold
        self._expand = expand

    def reference(self, query: QueryGraph,
                  candidate: Schema) -> SimilarityMatrix:
        matrix = self.empty_matrix(query, candidate)
        candidate_pairs = [
            (path, analysed_words(name, self._expand))
            for path, name, _kind in self.candidate_elements(candidate)
        ]
        for row_label, name in self.query_elements(query):
            query_words = analysed_words(name, self._expand)
            if not query_words:
                continue
            for col_label, cand_words in candidate_pairs:
                if not cand_words:
                    continue
                score = name_similarity(query_words, cand_words)
                if score >= self._threshold:
                    matrix.set(row_label, col_label, min(score, 1.0))
        return matrix

    def query_rows(self, query: QueryGraph):
        return (len(query.element_labels()), distinct_rows(
            analysed_words(name, self._expand)
            for name in query.element_names()))

    def column_keys(self, profile: "SchemaMatchProfile"):
        words_of = (profile.words_expanded if self._expand
                    else profile.words_plain)
        return map(words_of.__getitem__, profile.element_paths)

    def score_column(self, rows, key: tuple[str, ...]) -> Column:
        if not key:
            return None
        n_rows, forms = rows
        threshold = self._threshold
        cells = []
        for words, indices in forms:
            score = name_similarity(words, key)
            if score >= threshold:
                cells.append((indices, min(score, 1.0)))
        return column_from_cells(n_rows, cells)
