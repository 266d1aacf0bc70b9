"""Exact matcher: normalized-name equality.

The cheapest and highest-precision signal in the ensemble: 1.0 when two
element names normalize to the same string, else 0.0.  Useful as an
anchor for the learner (exact hits are almost always relevant) and as a
baseline in the ablation bench.
"""

from __future__ import annotations

from repro.matching.base import (
    Column,
    ColumnMatcher,
    MatchKeys,
    SimilarityMatrix,
    column_from_cells,
    distinct_rows,
)
from repro.matching.normalize import normalize_name
from repro.model.query import QueryGraph
from repro.model.schema import Schema


class ExactMatcher(ColumnMatcher):
    """1.0 for equal normalized names, 0.0 otherwise.

    Column key: the element's squashed normalized name.
    """

    name = "exact"

    def __init__(self, expand: bool = True) -> None:
        self._expand = expand

    def reference(self, query: QueryGraph,
                  candidate: Schema) -> SimilarityMatrix:
        matrix = self.empty_matrix(query, candidate)
        candidate_norms: dict[str, list[str]] = {}
        for path, name, _kind in self.candidate_elements(candidate):
            norm = normalize_name(name, expand=self._expand)
            if norm:
                candidate_norms.setdefault(norm, []).append(path)
        for label, name in self.query_elements(query):
            norm = normalize_name(name, expand=self._expand)
            for path in candidate_norms.get(norm, ()):
                matrix.set(label, path, 1.0)
        return matrix

    def query_rows(self, query: QueryGraph):
        rows = distinct_rows(normalize_name(name, expand=self._expand)
                             for name in query.element_names())
        return (len(query.element_labels()), dict(rows))

    def column_keys(self, profile: MatchKeys):
        return map("".join, profile.element_words(self._expand))

    def score_column(self, rows, key: str) -> Column:
        n_rows, rows_of = rows
        indices = rows_of.get(key) if key else None
        return None if indices is None else column_from_cells(
            n_rows, [(indices, 1.0)])
