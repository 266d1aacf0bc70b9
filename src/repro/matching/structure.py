"""Structural matcher: entity-shape similarity for fragment queries.

When the query contains a schema fragment, its *entities* carry
structural signal beyond their names: how many attributes they have and
how their attribute names distribute.  This matcher scores
entity/entity pairs by combining child-name overlap (Jaccard over
normalized attribute words) with an attribute-count ratio, and assigns
attribute/attribute pairs the score of their parent entity pair scaled
down — a cheap stand-in for the propagation step of similarity-flooding
style algorithms.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.matching.base import (
    Column,
    ColumnMatcher,
    SimilarityMatrix,
    column_from_cells,
)
from repro.matching.normalize import normalize_words
from repro.model.elements import Entity
from repro.model.query import QueryGraph, QueryItemKind
from repro.model.schema import Schema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.matching.profile import SchemaMatchProfile

#: Attribute pairs inherit this fraction of their entities' score.
_CHILD_PROPAGATION = 0.5


def _entity_word_set(entity: Entity) -> set[str]:
    words: set[str] = set()
    for attr in entity.attributes:
        words.update(normalize_words(attr.name))
    return words


def _shape_score(words_a: frozenset[str] | set[str], count_a: int,
                 words_b: frozenset[str] | set[str], count_b: int) -> float:
    if not count_a or not count_b:
        return 0.0
    union = words_a | words_b
    name_overlap = (len(words_a & words_b) / len(union)) if union else 0.0
    count_ratio = min(count_a, count_b) / max(count_a, count_b)
    return 0.7 * name_overlap + 0.3 * count_ratio


def entity_shape_similarity(a: Entity, b: Entity) -> float:
    """Structural similarity of two entities in [0, 1].

    0.7 * child-name Jaccard + 0.3 * attribute-count ratio.  Entities
    with no attributes score 0 (no structure to compare).
    """
    return _shape_score(_entity_word_set(a), len(a.attributes),
                        _entity_word_set(b), len(b.attributes))


class StructureMatcher(ColumnMatcher):
    """Scores entity pairs by shape; propagates a fraction to children.

    Column key: the owning entity's attribute-word set and attribute
    count, tagged with whether the element is the entity itself.
    """

    name = "structure"

    def __init__(self, threshold: float = 0.1) -> None:
        if not 0.0 <= threshold < 1.0:
            raise ValueError(f"threshold must be in [0, 1), got {threshold}")
        self._threshold = threshold

    def reference(self, query: QueryGraph,
                  candidate: Schema) -> SimilarityMatrix:
        matrix = self.empty_matrix(query, candidate)
        for fragment_labels, query_entity, query_words in \
                self._query_shapes(query):
            entity_label = fragment_labels[query_entity.name]
            for cand_entity in candidate.entities.values():
                score = _shape_score(
                    query_words, len(query_entity.attributes),
                    _entity_word_set(cand_entity),
                    len(cand_entity.attributes))
                if score < self._threshold:
                    continue
                matrix.set(entity_label, cand_entity.name, score)
                child_score = score * _CHILD_PROPAGATION
                if child_score < self._threshold:
                    continue
                for q_attr in query_entity.attributes:
                    q_label = fragment_labels[
                        f"{query_entity.name}.{q_attr.name}"]
                    for c_attr in cand_entity.attributes:
                        col = f"{cand_entity.name}.{c_attr.name}"
                        if matrix.get(q_label, col) < child_score:
                            matrix.set(q_label, col, child_score)
        return matrix

    def query_rows(self, query: QueryGraph):
        """(entity row, its attribute rows, attribute word set,
        attribute count) per fragment entity, plus the row count."""
        index_of = {label: i
                    for i, label in enumerate(query.element_labels())}
        shapes = []
        for fragment_labels, query_entity, query_words in \
                self._query_shapes(query):
            entity = query_entity.name
            shapes.append((
                (index_of[fragment_labels[entity]],),
                [index_of[fragment_labels[f"{entity}.{attr.name}"]]
                 for attr in query_entity.attributes],
                query_words, len(query_entity.attributes)))
        return (len(index_of), shapes)

    def column_keys(self, profile: "SchemaMatchProfile"):
        entity_of = profile.entity_of
        words = profile.entity_attr_words
        counts = profile.attribute_counts
        for path in profile.element_paths:
            entity = entity_of[path]
            yield (path == entity, words[entity], counts[entity])

    def score_column(self, rows, key) -> Column:
        is_entity, cand_words, cand_count = key
        n_rows, shapes = rows
        threshold = self._threshold
        cells = []
        for entity_row, attr_rows, query_words, query_count in shapes:
            score = _shape_score(query_words, query_count,
                                 cand_words, cand_count)
            if score < threshold:
                continue
            if is_entity:
                cells.append((entity_row, score))
                continue
            child_score = score * _CHILD_PROPAGATION
            if child_score >= threshold:
                cells.append((attr_rows, child_score))
        return column_from_cells(n_rows, cells)

    @staticmethod
    def _query_shapes(query: QueryGraph
                      ) -> list[tuple[dict[str, str], Entity, set[str]]]:
        """(fragment labels by path, query entity, its attribute word
        set) per fragment entity."""
        shapes: list[tuple[dict[str, str], Entity, set[str]]] = []
        labels = iter(query.element_labels())
        for item in query.items:
            if item.kind is QueryItemKind.KEYWORD:
                next(labels)
                continue
            assert item.fragment is not None
            # Collect this fragment's labels keyed by element path.
            fragment_labels: dict[str, str] = {}
            for ref in item.fragment.elements():
                fragment_labels[ref.path] = next(labels)
            for query_entity in item.fragment.entities.values():
                shapes.append((fragment_labels, query_entity,
                               _entity_word_set(query_entity)))
        return shapes
