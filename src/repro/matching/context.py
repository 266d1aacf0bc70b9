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

from typing import TYPE_CHECKING

from repro.matching.base import Matcher, SimilarityMatrix, fill_columns
from repro.matching.normalize import normalize_words
from repro.model.elements import ElementRef
from repro.model.graph import entity_adjacency
from repro.model.query import QueryGraph, QueryItemKind
from repro.model.schema import Schema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.matching.profile import MatchScratch, SchemaMatchProfile


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


class ContextMatcher(Matcher):
    """Scores element pairs by Jaccard similarity of neighborhood terms."""

    name = "context"

    def __init__(self, threshold: float = 0.1) -> None:
        if not 0.0 <= threshold < 1.0:
            raise ValueError(f"threshold must be in [0, 1), got {threshold}")
        self._threshold = threshold

    def match(self, query: QueryGraph, candidate: Schema,
              profile: "SchemaMatchProfile | None" = None,
              scratch: "MatchScratch | None" = None) -> SimilarityMatrix:
        matrix = self.empty_matrix(query, candidate,
                                   profile=profile, scratch=scratch)
        query_contexts = self._memoized_query_contexts(query, scratch)
        if profile is None:
            # Reference path: adjacency rebuilt, every cell scored on
            # its own — the golden the fast path is held to.
            adjacency = entity_adjacency(candidate)
            candidate_contexts = [
                (ref.path, element_context(candidate, ref, adjacency))
                for ref in candidate.elements()
            ]
            for row_label, query_context in query_contexts:
                if not query_context:
                    continue
                for col_label, cand_context in candidate_contexts:
                    score = _jaccard(query_context, cand_context)
                    if score >= self._threshold:
                        matrix.set(row_label, col_label, score)
            return matrix
        # Fast path: neighborhood term sets were derived once at ingest
        # time, and a column depends only on its (frozen) term set, so
        # each distinct set is scored against the query rows once per
        # search and every later column with that set is a copy.
        columns = (scratch.context_columns.setdefault(self, {})
                   if scratch is not None else {})
        fill_columns(matrix, query_contexts,
                     map(profile.context_terms.__getitem__,
                         profile.element_paths),
                     columns, _jaccard, self._threshold)
        return matrix

    def _memoized_query_contexts(self, query: QueryGraph,
                                 scratch: "MatchScratch | None"
                                 ) -> list[tuple[str, frozenset[str]]]:
        """Query-side contexts, computed once per search when a scratch
        is available (they are a function of the query alone)."""
        if scratch is not None:
            cached = scratch.matcher_memo.get(self.name)
            if cached is not None:
                return cached  # type: ignore[return-value]
        contexts = self._query_contexts(query)
        if scratch is not None:
            scratch.matcher_memo[self.name] = contexts
        return contexts

    def _query_contexts(self, query: QueryGraph) \
            -> list[tuple[str, frozenset[str]]]:
        labels = query.element_labels()
        contexts: list[tuple[str, frozenset[str]]] = []
        # Keywords share the flat query term set as their context.
        keyword_terms: set[str] = set()
        for name in query.element_names():
            keyword_terms.update(normalize_words(name))
        # Frozen: query contexts live in the per-search scratch, shared
        # across candidates and worker threads.
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
