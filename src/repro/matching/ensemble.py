"""Matcher ensemble: run every matcher, combine with a weighting scheme.

"For every candidate schema, the similarity matrices of the different
matchers are combined into a single matrix containing total similarity
scores.  We combine the scores from each matcher with a weighting
scheme, which is initially uniform."
"""

from __future__ import annotations

import types
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.errors import MatchError
from repro.matching.base import (
    Column,
    Matcher,
    SimilarityMatrix,
    matrix_from_columns,
)
from repro.matching.context import ContextMatcher
from repro.matching.name import NameMatcher
from repro.model.query import QueryGraph
from repro.model.schema import Schema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.matching.base import MatchKeys
    from repro.matching.profile import MatchScratch


@dataclass(slots=True)
class EnsembleResult:
    """Combined matrix plus the per-matcher matrices that produced it."""

    combined: SimilarityMatrix
    per_matcher: dict[str, SimilarityMatrix] = field(default_factory=dict)


@dataclass(slots=True)
class ColumnMatch:
    """One candidate's phase-2 outcome, kept as score columns.

    ``parts`` holds (matcher name, weight, one column per element of
    ``paths``) in ensemble order; ``row_labels`` are the query's.  The
    total-similarity column of an element is ``0.0 + w1/W * a``, then
    ``+ w2/W * b``... — the float order of
    :meth:`SimilarityMatrix.combine`, with ``W`` the weight sum — so
    element scores and matrices built here are bit-identical to
    combining the per-matcher matrices.  Matrices are built only on
    request (:meth:`combined`, :meth:`result`).
    """

    row_labels: list[str]
    paths: list[str]
    parts: list[tuple[str, float, list[Column]]]

    @classmethod
    def of(cls, query: QueryGraph, candidate: Schema,
           profile: "MatchKeys | None",
           scratch: "MatchScratch | None",
           parts: list[tuple[str, float, list[Column]]]) -> "ColumnMatch":
        """Label ``parts`` with the query's rows and the candidate's
        element paths (from the profile/scratch when available)."""
        row_labels = (scratch.row_labels(query) if scratch is not None
                      else query.element_labels())
        paths = (profile.element_paths if profile is not None
                 else list(candidate.element_entities()))
        return cls(row_labels, paths, parts)

    def _scaled(self) -> list[tuple[float, list[Column]]]:
        total = sum(weight for _name, weight, _columns in self.parts)
        # A zero weight adds exactly 0.0 to every cell: skipped.
        return [(weight / total, columns)
                for _name, weight, columns in self.parts if weight]

    def element_scores(self) -> dict[str, float]:
        """path -> best total similarity over the query rows (the
        paper's max per schema element)."""
        scaled = self._scaled()
        return {path: _peak([(scale, columns[j])
                             for scale, columns in scaled
                             if columns[j] is not None])
                for j, path in enumerate(self.paths)}

    def combined(self) -> SimilarityMatrix:
        """The total-similarity matrix."""
        scaled = self._scaled()
        columns = []
        for j in range(len(self.paths)):
            hits = [(scale, columns_[j]) for scale, columns_ in scaled
                    if columns_[j] is not None]
            columns.append(tuple(_combine(hits)) if hits else None)
        return matrix_from_columns(self.row_labels, self.paths, columns)

    def result(self) -> EnsembleResult:
        """The combined and per-matcher matrices."""
        return EnsembleResult(
            combined=self.combined(),
            per_matcher={
                name: matrix_from_columns(self.row_labels, self.paths,
                                          columns)
                for name, _weight, columns in self.parts})


def _peak(hits: list[tuple[float, tuple[float, ...]]]) -> float:
    """Max over the rows of :func:`_combine`."""
    if not hits:
        return 0.0
    if len(hits) == 1:
        # x -> scale * x is monotone, so the max commutes with it.
        scale, column = hits[0]
        return scale * max(column)
    return max(_combine(hits))


def _combine(hits: list[tuple[float, tuple[float, ...]]]) -> list[float]:
    """Row-wise weighted sum of non-empty columns, in ensemble order."""
    (scale, column), *rest = hits
    total = [scale * value for value in column]
    for scale, column in rest:
        total = [acc + scale * value for acc, value in zip(total, column)]
    return total


class MatcherEnsemble:
    """A weighted set of matchers applied to (query, candidate) pairs."""

    def __init__(self, matchers: list[Matcher] | None = None,
                 weights: dict[str, float] | None = None) -> None:
        if matchers is None:
            matchers = [NameMatcher(), ContextMatcher()]
        if not matchers:
            raise MatchError("ensemble needs at least one matcher")
        names = [m.name for m in matchers]
        if len(set(names)) != len(names):
            raise MatchError(f"duplicate matcher names: {names}")
        # Immutable/snapshot containers so the properties below can hand
        # out views instead of copying per access (the engine reads them
        # in the per-candidate hot loop).
        self._matchers: tuple[Matcher, ...] = tuple(matchers)
        self._matcher_names: tuple[str, ...] = tuple(names)
        self._weights = {m.name: 1.0 for m in matchers}
        self._weights_view = types.MappingProxyType(self._weights)
        if weights:
            self.set_weights(weights)

    @classmethod
    def default(cls) -> "MatcherEnsemble":
        """The paper's configuration: name + context, uniform weights."""
        return cls()

    @property
    def matchers(self) -> tuple[Matcher, ...]:
        return self._matchers

    @property
    def matcher_names(self) -> tuple[str, ...]:
        return self._matcher_names

    @property
    def weights(self) -> Mapping[str, float]:
        """Read-only live view of the weighting scheme."""
        return self._weights_view

    def set_weights(self, weights: dict[str, float]) -> None:
        """Replace the weighting scheme (e.g. with learned weights).

        Unknown matcher names are rejected; missing names keep their
        current weight.
        """
        known = set(self._weights)
        unknown = set(weights) - known
        if unknown:
            raise MatchError(
                f"weights name unknown matchers: {sorted(unknown)}")
        # Validate against a snapshot so a rejected update leaves the
        # current scheme untouched (the mutation boundary owns the copy).
        updated = dict(self._weights)
        for name, weight in weights.items():
            if weight < 0:
                raise MatchError(f"weight for {name!r} must be >= 0")
            updated[name] = weight
        if all(w == 0 for w in updated.values()):
            raise MatchError("at least one matcher weight must be positive")
        self._weights.update(updated)

    def match(self, query: QueryGraph, candidate: Schema,
              profile: "MatchKeys | None" = None,
              scratch: "MatchScratch | None" = None) -> EnsembleResult:
        """Run every matcher and combine into the total-similarity matrix.

        ``profile``/``scratch`` are forwarded to every matcher — the
        candidate's precomputed artifacts and the per-query memoization
        of the acceleration layer.
        """
        parts = [(matcher.name, self._weights[matcher.name],
                  matcher.columns(query, candidate, profile=profile,
                                  scratch=scratch))
                 for matcher in self._matchers]
        return ColumnMatch.of(query, candidate, profile, scratch,
                              parts).result()
