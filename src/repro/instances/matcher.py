"""Instance-based matcher for the ensemble.

Scores attribute pairs by feature-vector similarity of their example
values — what lets two columns named ``stature`` and ``h_cm`` match
because both contain two-to-three digit decimals in the same range.

The matcher needs example values for both sides:

* candidate side — an :class:`InstanceProvider` callable mapping a
  schema id to ``{element_path: values}`` (usually backed by
  :func:`repro.instances.store.load_instances`);
* query side — explicit ``query_instances`` for fragment elements
  (a draft schema's sample data), keyed by fragment element path.

Elements without examples abstain, keeping the matcher safe to include
in any ensemble.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.instances.features import column_features, feature_similarity
from repro.matching.base import Matcher, SimilarityMatrix
from repro.model.query import QueryGraph, QueryItemKind
from repro.model.schema import Schema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.matching.base import MatchKeys
    from repro.matching.profile import MatchScratch

#: schema_id -> {element_path: example values}
InstanceProvider = Callable[[int], dict[str, list[str]]]


class InstanceMatcher(Matcher):
    """Scores attribute pairs by example-value feature similarity."""

    name = "instance"

    def __init__(self, provider: InstanceProvider,
                 query_instances: dict[str, list[str]] | None = None,
                 threshold: float = 0.5) -> None:
        if not 0.0 <= threshold < 1.0:
            raise ValueError(f"threshold must be in [0, 1), got {threshold}")
        self._provider = provider
        self._query_instances = dict(query_instances or {})
        self._threshold = threshold

    def match(self, query: QueryGraph, candidate: Schema,
              profile: "MatchKeys | None" = None,
              scratch: "MatchScratch | None" = None) -> SimilarityMatrix:
        matrix = self.empty_matrix(query, candidate,
                                   profile=profile, scratch=scratch)
        if candidate.schema_id is None:
            return matrix
        candidate_values = self._provider(candidate.schema_id)
        if not candidate_values or not self._query_instances:
            return matrix
        candidate_features = {
            path: column_features(values)
            for path, values in candidate_values.items() if values
        }
        query_features = self._query_feature_rows(query)
        for row_label, features in query_features:
            for path, cand_features in candidate_features.items():
                score = feature_similarity(features, cand_features)
                if score >= self._threshold:
                    matrix.set(row_label, path, min(score, 1.0))
        return matrix

    def _query_feature_rows(self, query: QueryGraph) \
            -> list[tuple[str, np.ndarray]]:
        rows: list[tuple[str, np.ndarray]] = []
        labels = iter(query.element_labels())
        for item in query.items:
            if item.kind is QueryItemKind.KEYWORD:
                next(labels)  # keywords carry no example values
                continue
            assert item.fragment is not None
            for ref in item.fragment.elements():
                label = next(labels)
                values = self._query_instances.get(ref.path)
                if values:
                    rows.append((label, column_features(values)))
        return rows
