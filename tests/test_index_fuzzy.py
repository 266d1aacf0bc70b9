"""Unit tests for fuzzy query-term expansion."""

import pytest

from repro.core.config import SchemrConfig
from repro.core.engine import SchemrEngine
from repro.index.documents import document_from_schema
from repro.index.fuzzy import (
    Expansion,
    TrigramIndex,
    expand_query_terms,
    term_trigrams,
)
from repro.index.inverted import InvertedIndex
from repro.index.searcher import IndexSearcher

from tests.conftest import build_clinic_schema


class TestTrigrams:
    def test_padded_trigrams(self):
        assert term_trigrams("pat") == {"$pa", "pat", "at$"}

    def test_short_terms_have_no_signal(self):
        assert term_trigrams("a") == set()
        assert term_trigrams("") == set()

    def test_two_char_term(self):
        assert term_trigrams("id") == {"$id", "id$"}


class TestTrigramIndex:
    @pytest.fixture
    def vocabulary(self) -> TrigramIndex:
        return TrigramIndex.from_terms(
            ["patient", "height", "gender", "diagnosi", "salari",
             "observ", "registr"])

    def test_contains_and_len(self, vocabulary):
        assert "patient" in vocabulary
        assert "ghost" not in vocabulary
        assert len(vocabulary) == 7

    def test_suggests_close_term(self, vocabulary):
        suggestions = vocabulary.suggest("pateint")  # transposition
        assert suggestions
        assert suggestions[0].term == "patient"

    def test_suggests_for_deletion(self, vocabulary):
        suggestions = vocabulary.suggest("hight")
        assert suggestions and suggestions[0].term == "height"

    def test_no_suggestion_for_garbage(self, vocabulary):
        assert vocabulary.suggest("zzzqqq") == []

    def test_identical_term_not_suggested(self, vocabulary):
        assert all(e.term != "patient"
                   for e in vocabulary.suggest("patient"))

    def test_suggestions_sorted_best_first(self, vocabulary):
        suggestions = vocabulary.suggest("registratio")
        similarities = [e.similarity for e in suggestions]
        assert similarities == sorted(similarities, reverse=True)

    def test_max_suggestions_respected(self):
        index = TrigramIndex.from_terms(
            ["pat", "pate", "pater", "patern"], max_suggestions=2)
        assert len(index.suggest("pati")) <= 2

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            TrigramIndex(min_similarity=0.0)
        with pytest.raises(ValueError):
            TrigramIndex(max_suggestions=0)


class TestExpandQueryTerms:
    def test_abbreviations_expanded(self):
        assert expand_query_terms(["pat", "ht"]) == ["pat", "height"]

    def test_case_normalized(self):
        assert expand_query_terms(["HT"]) == ["height"]


class TestFuzzySearch:
    @pytest.fixture
    def searcher_pair(self) -> tuple[IndexSearcher, IndexSearcher]:
        index = InvertedIndex()
        schema = build_clinic_schema()
        schema.schema_id = 1
        index.add(document_from_schema(schema))
        plain = IndexSearcher(index)
        fuzzy = IndexSearcher(
            index, fuzzy=TrigramIndex.from_terms(index.vocabulary()))
        return plain, fuzzy

    def test_typo_recovered_only_with_fuzzy(self, searcher_pair):
        plain, fuzzy = searcher_pair
        assert plain.search(["pateint"], top_n=5) == []
        hits = fuzzy.search(["pateint"], top_n=5)
        assert hits and hits[0].doc_id == 1

    def test_expansion_discounted_below_exact(self, searcher_pair):
        _plain, fuzzy = searcher_pair
        exact = fuzzy.search(["patient"], top_n=1)[0].score
        typo = fuzzy.search(["pateint"], top_n=1)[0].score
        assert 0 < typo < exact

    def test_known_terms_unchanged_by_fuzzy(self, searcher_pair):
        plain, fuzzy = searcher_pair
        a = plain.search(["patient", "height"], top_n=5)
        b = fuzzy.search(["patient", "height"], top_n=5)
        assert [(h.doc_id, h.score) for h in a] == \
            [(h.doc_id, h.score) for h in b]

    def test_abbreviation_reaches_index(self, searcher_pair):
        _plain, fuzzy = searcher_pair
        hits = fuzzy.search(["ht"], top_n=5)  # expands to height
        assert hits and hits[0].doc_id == 1

    def test_engine_config_flag(self):
        schema = build_clinic_schema()
        schema.schema_id = 1
        index = InvertedIndex()
        index.add(document_from_schema(schema))
        plain_engine = SchemrEngine(index=index)
        fuzzy_engine = SchemrEngine(
            index=index,
            config=SchemrConfig(use_fuzzy_expansion=True))
        assert plain_engine.search(keywords="pateint gnder") == []
        results = fuzzy_engine.search(keywords="pateint gnder")
        assert results and results[0].name == "clinic_emr"

    def test_expansion_dataclass(self):
        expansion = Expansion(term="patient", similarity=0.8)
        assert expansion.term == "patient"
