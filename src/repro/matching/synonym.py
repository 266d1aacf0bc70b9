"""Synonym matcher: thesaurus lookup over normalized names.

The built-in thesaurus covers vocabulary from the paper's motivating
domains (health data, conservation monitoring) plus generic business
terms.  Matching is by synonym *set*: two names score 1.0 when they
normalize into the same set, and a partial score when multi-word names
share synonyms word-wise.  Callers can extend or replace the thesaurus
(e.g. with the OpenII "codebook" integration the paper sketches).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.matching.base import (
    Column,
    ColumnMatcher,
    SimilarityMatrix,
    column_from_cells,
    distinct_rows,
)
from repro.matching.normalize import normalize_words
from repro.model.query import QueryGraph
from repro.model.schema import Schema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.matching.profile import SchemaMatchProfile

#: Each inner tuple is one synonym set.
DEFAULT_THESAURUS: tuple[tuple[str, ...], ...] = (
    ("doctor", "physician", "clinician", "provider"),
    ("patient", "subject", "client"),
    ("gender", "sex"),
    ("diagnosis", "condition", "disease", "illness"),
    ("medication", "drug", "medicine", "prescription"),
    ("visit", "encounter", "appointment"),
    ("height", "stature"),
    ("weight", "mass"),
    ("birth", "born"),
    ("death", "deceased", "mortality"),
    ("species", "taxon", "organism"),
    ("site", "location", "place", "station"),
    ("observation", "sighting", "record", "measurement"),
    ("date", "day", "time"),
    ("area", "region", "zone"),
    ("salary", "wage", "pay", "compensation"),
    ("employee", "worker", "staff"),
    ("company", "firm", "organization", "employer"),
    ("customer", "client", "buyer"),
    ("price", "cost", "amount"),
    ("product", "item", "good"),
    ("order", "purchase"),
    ("address", "residence"),
    ("phone", "telephone", "mobile"),
    ("email", "mail"),
    ("country", "nation"),
    ("city", "town", "municipality"),
    ("identifier", "id", "key", "code"),
    ("name", "title", "label"),
    ("quantity", "count", "number"),
    ("begin", "start"),
    ("end", "finish", "stop"),
    ("teacher", "instructor", "professor"),
    ("student", "pupil", "learner"),
    ("course", "class", "subject"),
    ("grade", "mark", "score"),
    ("author", "writer", "creator"),
    ("vehicle", "car", "automobile"),
)


class SynonymMatcher(ColumnMatcher):
    """Scores pairs by word-level synonym overlap.

    Column key: the element's analysed (expanded) words.
    """

    name = "synonym"

    def __init__(self,
                 thesaurus: tuple[tuple[str, ...], ...] = DEFAULT_THESAURUS
                 ) -> None:
        # A word may appear in several sets ("client" is a synonym of
        # both patient and customer), so membership is a set of set-ids.
        self._memberships: dict[str, set[int]] = {}
        for set_id, synonym_set in enumerate(thesaurus):
            for word in synonym_set:
                self._memberships.setdefault(word, set()).add(set_id)

    def _word_sets(self, name: str) -> set[int]:
        """Ids of every synonym set touched by the words of ``name``."""
        return self._sets_of(normalize_words(name))

    def _sets_of(self, words: Iterable[str]) -> set[int]:
        sets: set[int] = set()
        for word in words:
            sets.update(self._memberships.get(word, ()))
        return sets

    def reference(self, query: QueryGraph,
                  candidate: Schema) -> SimilarityMatrix:
        matrix = self.empty_matrix(query, candidate)
        candidate_sets = [
            (path, self._word_sets(name), len(normalize_words(name)))
            for path, name, _kind in self.candidate_elements(candidate)
        ]
        for label, name in self.query_elements(query):
            query_sets = self._word_sets(name)
            if not query_sets:
                continue
            query_word_count = max(len(normalize_words(name)), 1)
            for path, cand_sets, cand_word_count in candidate_sets:
                score = self._score(query_sets, query_word_count,
                                    cand_sets, cand_word_count)
                if score:
                    matrix.set(label, path, score)
        return matrix

    def query_rows(self, query: QueryGraph):
        forms = []
        for name in query.element_names():
            sets = frozenset(self._word_sets(name))
            forms.append((sets, max(len(normalize_words(name)), 1))
                         if sets else None)
        return (len(forms), distinct_rows(forms))

    def column_keys(self, profile: "SchemaMatchProfile"):
        return map(profile.words_expanded.__getitem__, profile.element_paths)

    def score_column(self, rows, key: tuple[str, ...]) -> Column:
        n_rows, forms = rows
        cand_sets = self._sets_of(key)
        if not cand_sets:
            return None
        return column_from_cells(n_rows, [
            (indices, self._score(query_sets, query_word_count,
                                  cand_sets, len(key)))
            for (query_sets, query_word_count), indices in forms])

    @staticmethod
    def _score(query_sets: "set[int] | frozenset[int]", query_word_count: int,
               cand_sets: set[int], cand_word_count: int) -> float:
        shared = len(query_sets & cand_sets)
        if shared == 0:
            return 0.0
        # Fraction of the longer name's words that found a synonym
        # partner; single-word synonym hits score 1.0.
        denom = max(query_word_count, cand_word_count, 1)
        return min(1.0, shared / denom)
