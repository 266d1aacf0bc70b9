"""Codebook matcher: concept-level similarity for the ensemble.

Two attributes annotated with the *same* concept score 1.0 even when
their names share no characters (``stature``/``height``: both are the
*length* concept).  Attributes whose concepts differ but share a
category score a configurable partial credit (two different units are
more alike than a unit and an email address).  Unannotated elements and
entity-level elements abstain.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.codebook.annotate import annotate_attribute, annotate_schema
from repro.matching.base import Matcher, SimilarityMatrix
from repro.model.query import QueryGraph, QueryItemKind
from repro.model.schema import Schema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.matching.base import MatchKeys
    from repro.matching.profile import MatchScratch


class CodebookMatcher(Matcher):
    """Scores pairs by codebook concept compatibility."""

    name = "codebook"

    def __init__(self, same_category_score: float = 0.4) -> None:
        if not 0.0 <= same_category_score <= 1.0:
            raise ValueError(
                f"same_category_score must be in [0, 1], got "
                f"{same_category_score}")
        self._same_category_score = same_category_score

    def match(self, query: QueryGraph, candidate: Schema,
              profile: "MatchKeys | None" = None,
              scratch: "MatchScratch | None" = None) -> SimilarityMatrix:
        matrix = self.empty_matrix(query, candidate,
                                   profile=profile, scratch=scratch)
        candidate_concepts = annotate_schema(candidate).annotations
        if not candidate_concepts:
            return matrix
        labels = iter(query.element_labels())
        for item in query.items:
            if item.kind is QueryItemKind.KEYWORD:
                label = next(labels)
                assert item.keyword is not None
                annotation = annotate_attribute(item.keyword)
                if annotation is not None:
                    self._fill_row(matrix, label, annotation.concept,
                                   candidate_concepts)
                continue
            assert item.fragment is not None
            fragment_concepts = annotate_schema(item.fragment).annotations
            for ref in item.fragment.elements():
                label = next(labels)
                annotation = fragment_concepts.get(ref.path)
                if annotation is not None:
                    self._fill_row(matrix, label, annotation.concept,
                                   candidate_concepts)
        return matrix

    def _fill_row(self, matrix: SimilarityMatrix, row_label: str,
                  concept, candidate_concepts) -> None:
        for path, annotation in candidate_concepts.items():
            other = annotation.concept
            if other.name == concept.name:
                matrix.set(row_label, path, 1.0)
            elif other.category is concept.category:
                if matrix.get(row_label, path) < self._same_category_score:
                    matrix.set(row_label, path, self._same_category_score)
