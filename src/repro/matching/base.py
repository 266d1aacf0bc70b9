"""Matcher interface and the similarity matrix they all produce.

"Each (query element, schema element) pair has a corresponding value
which describes the match quality — a value between 0 and 1."
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Iterator

import numpy as np

from repro.errors import MatchError
from repro.model.elements import ElementKind, ElementRef
from repro.model.query import QueryGraph
from repro.model.schema import Schema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.matching.profile import MatchScratch, SchemaMatchProfile


class SimilarityMatrix:
    """Query elements x schema elements, values in [0, 1].

    Rows are labelled with query element labels (keyword text or
    fragment element path); columns with candidate element paths.
    Backed by a numpy array so ensemble combination and the max-per-
    element collapse are vectorized.
    """

    def __init__(self, row_labels: list[str], col_labels: list[str],
                 values: np.ndarray | None = None) -> None:
        if len(set(row_labels)) != len(row_labels):
            raise MatchError("duplicate row labels in similarity matrix")
        if len(set(col_labels)) != len(col_labels):
            raise MatchError("duplicate column labels in similarity matrix")
        self.row_labels = list(row_labels)
        self.col_labels = list(col_labels)
        self._row_index = {label: i for i, label in enumerate(row_labels)}
        self._col_index = {label: i for i, label in enumerate(col_labels)}
        shape = (len(row_labels), len(col_labels))
        if values is None:
            self.values = np.zeros(shape)
        else:
            values = np.asarray(values, dtype=float)
            if values.shape != shape:
                raise MatchError(
                    f"matrix shape {values.shape} does not match labels "
                    f"{shape}")
            self.values = values

    # -- element access ----------------------------------------------------

    def get(self, row: str, col: str) -> float:
        return float(self.values[self._row_index[row], self._col_index[col]])

    def set(self, row: str, col: str, value: float) -> None:
        if not 0.0 <= value <= 1.0:
            raise MatchError(
                f"similarity must be in [0, 1], got {value} "
                f"for ({row!r}, {col!r})")
        self.values[self._row_index[row], self._col_index[col]] = value

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row_labels), len(self.col_labels))

    # -- reductions used by tightness-of-fit -------------------------------

    def max_per_column(self) -> dict[str, float]:
        """Best query-element score for each schema element.

        This is the paper's "selecting the maximum value of each schema
        element's entry in the matrix as the final match score for that
        element".  Empty row set yields zeros.
        """
        if not self.row_labels:
            return {label: 0.0 for label in self.col_labels}
        best = self.values.max(axis=0)
        return {label: float(best[i])
                for i, label in enumerate(self.col_labels)}

    def max_per_row(self) -> dict[str, float]:
        """Best schema-element score for each query element."""
        if not self.col_labels:
            return {label: 0.0 for label in self.row_labels}
        best = self.values.max(axis=1)
        return {label: float(best[i])
                for i, label in enumerate(self.row_labels)}

    def nonzero_pairs(self, threshold: float = 0.0) \
            -> Iterator[tuple[str, str, float]]:
        """(row, col, value) triples with value > threshold, best first."""
        rows, cols = np.nonzero(self.values > threshold)
        order = np.argsort(-self.values[rows, cols])
        for k in order:
            i, j = int(rows[k]), int(cols[k])
            yield (self.row_labels[i], self.col_labels[j],
                   float(self.values[i, j]))

    # -- combination -------------------------------------------------------

    @staticmethod
    def combine(matrices: list["SimilarityMatrix"],
                weights: list[float] | None = None) -> "SimilarityMatrix":
        """Weighted average of same-shaped matrices.

        Weights are normalized to sum to 1 (uniform when omitted), so the
        result stays within [0, 1].
        """
        if not matrices:
            raise MatchError("cannot combine zero matrices")
        first = matrices[0]
        for other in matrices[1:]:
            if (other.row_labels != first.row_labels
                    or other.col_labels != first.col_labels):
                raise MatchError("matrices have mismatched labels")
        if weights is None:
            weights = [1.0] * len(matrices)
        if len(weights) != len(matrices):
            raise MatchError(
                f"{len(weights)} weights for {len(matrices)} matrices")
        if any(w < 0 for w in weights):
            raise MatchError("weights must be non-negative")
        total = sum(weights)
        if total <= 0:
            raise MatchError("weights sum to zero")
        combined = np.zeros(first.shape)
        for matrix, weight in zip(matrices, weights):
            combined += (weight / total) * matrix.values
        return SimilarityMatrix(first.row_labels, first.col_labels, combined)


#: Column-memo marker for "not scored yet" (``None`` already means
#: "scored, all zero").
_UNSCORED = object()


def fill_columns(matrix: SimilarityMatrix,
                 rows: list[tuple[str, Hashable]], keys: Iterable[Hashable],
                 memo: dict, similarity: Callable[[Hashable, Hashable],
                                                  float],
                 threshold: float) -> None:
    """Fill ``matrix`` column by column from a per-query column memo.

    ``rows`` holds each query row's (label, analysed form); ``keys``
    gives, per candidate column, everything its scores depend on (for
    the name matcher the element's words, for the context matcher its
    term set).  The first column with a given key scores it against
    every non-empty row — ``similarity``, the ``>= threshold`` cut-off
    and the ``min(score, 1.0)`` clamp of the reference cell loops, so
    the same float lands in the same cell; every later column with that
    key is a memo probe plus a copy.  An all-zero column is memoized as
    ``None`` and left untouched.
    """
    values = matrix.values
    for j, key in enumerate(keys):
        column = memo.get(key, _UNSCORED)
        if column is _UNSCORED:
            column = np.zeros(len(rows))
            for i, (_label, row) in enumerate(rows):
                if row:
                    score = similarity(row, key)
                    if score >= threshold:
                        column[i] = min(score, 1.0)
            if not column.any():
                column = None
            memo[key] = column
        if column is not None:
            values[:, j] = column


class Matcher(abc.ABC):
    """One fine-grained matcher of the ensemble."""

    #: Short identifier used in ensemble reports and learned weights.
    name: str = "matcher"

    @abc.abstractmethod
    def match(self, query: QueryGraph, candidate: Schema,
              profile: "SchemaMatchProfile | None" = None,
              scratch: "MatchScratch | None" = None) -> SimilarityMatrix:
        """Score every (query element, candidate element) pair.

        ``profile`` carries the candidate's precomputed artifacts (the
        acceleration layer); ``scratch`` carries per-query memoization
        shared across candidates.  Both are optional: without them a
        matcher derives everything from scratch, and the two paths must
        produce identical matrices (the golden-equivalence tests hold
        them to it).
        """

    # -- shared helpers ----------------------------------------------------

    @staticmethod
    def query_elements(query: QueryGraph) -> list[tuple[str, str]]:
        """(label, name) pairs for every query element."""
        return list(zip(query.element_labels(), query.element_names()))

    @staticmethod
    def candidate_elements(candidate: Schema) \
            -> list[tuple[str, str, ElementKind]]:
        """(path, local name, kind) triples for every candidate element."""
        out = []
        for ref in candidate.elements():
            out.append((ref.path, ref.local_name, ref.kind))
        return out

    def empty_matrix(self, query: QueryGraph, candidate: Schema,
                     profile: "SchemaMatchProfile | None" = None,
                     scratch: "MatchScratch | None" = None
                     ) -> SimilarityMatrix:
        """A zero matrix with the canonical labels for this pair.

        With a profile/scratch available the labels come from the
        precomputed artifacts instead of re-walking the schema and
        query.
        """
        if scratch is not None:
            row_labels = scratch.row_labels(query)
        else:
            row_labels = query.element_labels()
        if profile is not None:
            col_labels = profile.element_paths
        else:
            col_labels = [ref.path for ref in candidate.elements()]
        return SimilarityMatrix(row_labels=row_labels, col_labels=col_labels)
