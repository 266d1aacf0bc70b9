"""Matcher interface and the similarity matrix they all produce.

"Each (query element, schema element) pair has a corresponding value
which describes the match quality — a value between 0 and 1."
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Hashable, Iterable, Iterator, Optional

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


#: A score column: one float per query row, or ``None`` when every row
#: scores 0 (zero-only columns are never stored as floats).
Column = Optional[tuple[float, ...]]


def column_from_cells(n_rows: int,
                      cells: Iterable[tuple[Iterable[int], float]]
                      ) -> Column:
    """A column of ``n_rows`` zeros with each (rows, value) cell set;
    ``None`` when no cell carries a non-zero value."""
    column: list[float] | None = None
    for rows, value in cells:
        if value:
            if column is None:
                column = [0.0] * n_rows
            for i in rows:
                column[i] = value
    return None if column is None else tuple(column)


def distinct_rows(forms: Iterable[Hashable]
                  ) -> list[tuple[Hashable, list[int]]]:
    """Group query rows by their analysed form, first-seen order: a
    column scores each distinct form once and copies it to its rows.
    Falsy forms (nothing to score) are dropped."""
    groups: dict[Hashable, list[int]] = {}
    for i, form in enumerate(forms):
        if form:
            groups.setdefault(form, []).append(i)
    return list(groups.items())


def matrix_from_columns(row_labels: list[str], col_labels: list[str],
                        columns: Iterable[Column]) -> SimilarityMatrix:
    """The matrix whose ``j``-th column is ``columns[j]``."""
    matrix = SimilarityMatrix(row_labels, col_labels)
    values = matrix.values
    for j, column in enumerate(columns):
        if column is not None:
            values[:, j] = column
    return matrix


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

    def columns(self, query: QueryGraph, candidate: Schema,
                profile: "SchemaMatchProfile | None" = None,
                scratch: "MatchScratch | None" = None) -> list[Column]:
        """One score column per candidate element, in schema order.

        This is what the ensemble combines.  The default slices
        :meth:`match`'s matrix; :class:`ColumnMatcher` scores memoised
        column keys instead and builds no matrix.
        """
        values = self.match(query, candidate, profile=profile,
                            scratch=scratch).values
        return [tuple(column) if any(column) else None
                for column in values.T.tolist()]

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


class ColumnMemo(dict):
    """column key -> score column, for one column matcher and one
    query: a key is scored on its first lookup, then served."""

    __slots__ = ("_matcher", "_rows")

    def __init__(self, matcher: "ColumnMatcher", rows: object) -> None:
        super().__init__()
        self._matcher = matcher
        self._rows = rows

    def __missing__(self, key: Hashable) -> Column:
        column = self[key] = self._matcher.score_column(self._rows, key)
        return column


class ColumnMatcher(Matcher):
    """A matcher whose column for a candidate element depends only on a
    hashable *column key* of that element.

    Element names, context sets and type families repeat across the
    candidate pool, so with a profile each distinct key is scored
    against the query rows once per search (memoised in the scratch,
    ``None`` for a column with no hit) and every later element with
    that key costs a dict probe.  Without a profile :meth:`reference`
    scores every cell on its own: the golden the column path is held to.
    """

    def match(self, query: QueryGraph, candidate: Schema,
              profile: "SchemaMatchProfile | None" = None,
              scratch: "MatchScratch | None" = None) -> SimilarityMatrix:
        if profile is None:
            return self.reference(query, candidate)
        row_labels = (scratch.row_labels(query) if scratch is not None
                      else query.element_labels())
        return matrix_from_columns(
            row_labels, profile.element_paths,
            self.columns(query, candidate, profile, scratch))

    def columns(self, query: QueryGraph, candidate: Schema,
                profile: "SchemaMatchProfile | None" = None,
                scratch: "MatchScratch | None" = None) -> list[Column]:
        if profile is None:
            return super().columns(query, candidate, scratch=scratch)
        memo = scratch.columns.get(self) if scratch is not None else None
        if memo is None:
            memo = ColumnMemo(self, self.query_rows(query))
            if scratch is not None:
                scratch.columns[self] = memo
        return list(map(memo.__getitem__, self.column_keys(profile)))

    @abc.abstractmethod
    def reference(self, query: QueryGraph,
                  candidate: Schema) -> SimilarityMatrix:
        """The cell-by-cell matrix, derived from the schema alone."""

    @abc.abstractmethod
    def query_rows(self, query: QueryGraph) -> object:
        """The query-side artifact :meth:`score_column` reads (computed
        once per search)."""

    @abc.abstractmethod
    def column_keys(self, profile: "SchemaMatchProfile") -> Iterable[Hashable]:
        """One column key per element of ``profile.element_paths``."""

    @abc.abstractmethod
    def score_column(self, rows: object, key: Hashable) -> Column:
        """Score one column key against every query row."""
