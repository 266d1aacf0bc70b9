"""The context matcher: neighboring-element term sets.

"A context matcher builds a set of terms from neighboring elements, and
tries to capture matches when neighboring-element sets are similar to
each other."  (The technique the paper cites from Rahm & Bernstein's
survey.)

Neighborhood definition:

* for an *attribute* — its own words, its entity's name words, and the
  words of its sibling attributes;
* for an *entity* — its name words, its attributes' words, and the name
  words of FK-adjacent entities.

For the query side, keywords have no structure, so a keyword's context
is the whole query term set (all keywords and fragment element names
share one query "neighborhood"); fragment elements get real neighborhoods
from their fragment.  Similarity is Jaccard over analyzed word sets.
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
from repro.matching.normalize import normalize_words
from repro.model.elements import ElementRef
from repro.model.graph import entity_adjacency
from repro.model.query import QueryGraph, QueryItemKind
from repro.model.schema import Schema


def _jaccard(a: set[str], b: set[str]) -> float:
    if not a or not b:
        return 0.0
    union = len(a | b)
    if union == 0:
        return 0.0
    return len(a & b) / union


def element_context(schema: Schema, ref: ElementRef,
                    adjacency: dict[str, set[str]] | None = None) -> set[str]:
    """The neighborhood term set of one schema element."""
    if adjacency is None:
        adjacency = entity_adjacency(schema)
    entity = schema.entity(ref.entity)
    terms: set[str] = set(normalize_words(entity.name))
    for attr in entity.attributes:
        terms.update(normalize_words(attr.name))
    if ref.attribute is None:
        for neighbor in adjacency.get(entity.name, ()):
            terms.update(normalize_words(neighbor))
    return terms


class ContextMatcher(ColumnMatcher):
    """Scores element pairs by Jaccard similarity of neighborhood terms.

    Column key: the element's (frozen) neighborhood term set.
    """

    name = "context"

    def __init__(self, threshold: float = 0.1) -> None:
        if not 0.0 <= threshold < 1.0:
            raise ValueError(f"threshold must be in [0, 1), got {threshold}")
        self._threshold = threshold

    def reference(self, query: QueryGraph,
                  candidate: Schema) -> SimilarityMatrix:
        matrix = self.empty_matrix(query, candidate)
        adjacency = entity_adjacency(candidate)
        candidate_contexts = [
            (ref.path, element_context(candidate, ref, adjacency))
            for ref in candidate.elements()
        ]
        for row_label, query_context in self._query_contexts(query):
            if not query_context:
                continue
            for col_label, cand_context in candidate_contexts:
                score = _jaccard(query_context, cand_context)
                if score >= self._threshold:
                    matrix.set(row_label, col_label, score)
        return matrix

    def query_rows(self, query: QueryGraph):
        # Every keyword row shares one context, so it is scored once.
        contexts = self._query_contexts(query)
        return (len(contexts),
                distinct_rows(context for _label, context in contexts))

    def column_keys(self, profile: MatchKeys):
        return profile.element_contexts()

    def score_column(self, rows, key: frozenset[str]) -> Column:
        n_rows, forms = rows
        threshold = self._threshold
        cells = []
        for context, indices in forms:
            score = _jaccard(context, key)
            if score >= threshold:
                cells.append((indices, score))
        return column_from_cells(n_rows, cells)

    def _query_contexts(self, query: QueryGraph) \
            -> list[tuple[str, frozenset[str]]]:
        labels = query.element_labels()
        contexts: list[tuple[str, frozenset[str]]] = []
        # Keywords share the flat query term set as their context.
        keyword_terms: set[str] = set()
        for name in query.element_names():
            keyword_terms.update(normalize_words(name))
        keyword_context = frozenset(keyword_terms)
        label_iter = iter(labels)
        for item in query.items:
            if item.kind is QueryItemKind.KEYWORD:
                label = next(label_iter)
                contexts.append((label, keyword_context))
            else:
                assert item.fragment is not None
                adjacency = entity_adjacency(item.fragment)
                for ref in item.fragment.elements():
                    label = next(label_iter)
                    contexts.append(
                        (label,
                         frozenset(element_context(item.fragment, ref,
                                                   adjacency))))
        return contexts
