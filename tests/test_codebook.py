"""Unit tests for the codebook: concepts, annotation, matcher."""

import pytest

from repro.codebook.annotate import annotate_attribute, annotate_schema
from repro.codebook.concepts import CONCEPTS, ConceptCategory, concept_by_name
from repro.codebook.matcher import CodebookMatcher
from repro.model.elements import Attribute, Entity
from repro.model.query import QueryGraph
from repro.model.schema import Schema


class TestConcepts:
    def test_paper_categories_present(self):
        categories = {c.category for c in CONCEPTS}
        # The three the paper names explicitly.
        assert ConceptCategory.UNIT in categories
        assert ConceptCategory.DATETIME in categories
        assert ConceptCategory.GEOGRAPHIC in categories

    def test_lookup(self):
        assert concept_by_name("length").canonical_unit == "m"
        with pytest.raises(KeyError):
            concept_by_name("ghost")

    def test_concept_names_unique(self):
        names = [c.name for c in CONCEPTS]
        assert len(names) == len(set(names))

    def test_cues_lowercase(self):
        for concept in CONCEPTS:
            assert all(cue == cue.lower() for cue in concept.name_cues)


class TestAnnotateAttribute:
    @pytest.mark.parametrize("name,data_type,expected", [
        ("height", "DECIMAL(5,2)", "length"),
        ("weight", "REAL", "mass"),
        ("birth_date", "DATE", "calendar_date"),
        ("latitude", "REAL", "latitude"),
        ("unit_price", "DECIMAL(10,2)", "money"),
        ("email", "VARCHAR(100)", "email_address"),
        ("phone_number", "VARCHAR(20)", "phone_number"),
        ("zip_code", "VARCHAR(10)", "postal_code"),
    ])
    def test_recognizes_common_attributes(self, name, data_type, expected):
        annotation = annotate_attribute(name, data_type)
        assert annotation is not None
        assert annotation.concept.name == expected

    def test_abbreviations_recognized_via_expansion(self):
        annotation = annotate_attribute("ht", "DECIMAL")
        assert annotation is not None
        assert annotation.concept.name == "length"

    def test_unknown_attribute_unannotated(self):
        assert annotate_attribute("flibbertigibbet", "TEXT") is None

    def test_type_mismatch_rejects_single_cue(self):
        """A single name cue with a contradicting declared type falls
        below the acceptance threshold — the recognizer abstains rather
        than mislabeling a binary column as a length."""
        assert annotate_attribute("height", "DECIMAL") is not None
        assert annotate_attribute("height", "BLOB") is None

    def test_more_cues_win(self):
        # 'visit date' hits calendar_date's cue once; a two-cue name
        # outranks single-cue alternatives.
        annotation = annotate_attribute("date_of_birth_day", "DATE")
        assert annotation is not None
        assert annotation.concept.name == "calendar_date"


class TestAnnotateSchema:
    def test_clinic_annotations(self, clinic_schema):
        annotated = annotate_schema(clinic_schema)
        assert annotated.concept_of("patient.height").name == "length"
        assert annotated.concept_of("patient.id").name == "surrogate_key"
        assert annotated.concept_of("patient.name").name == "person_name"
        assert annotated.coverage > 0.4

    def test_by_category_grouping(self, clinic_schema):
        groups = annotate_schema(clinic_schema).by_category()
        assert "patient.height" in groups["unit"]
        assert "patient.id" in groups["identifier"]

    def test_empty_schema(self):
        annotated = annotate_schema(Schema(name="empty"))
        assert annotated.coverage == 0.0


class TestCodebookMatcher:
    @pytest.fixture
    def synonymless_schema(self) -> Schema:
        """Attribute names that share NO characters-of-meaning with the
        query, but the same concepts."""
        schema = Schema(name="s", schema_id=1)
        schema.add_entity(Entity("person", [
            Attribute("stature", "DECIMAL(5,2)"),
            Attribute("body_mass", "REAL"),
        ]))
        return schema

    def test_same_concept_scores_one(self, synonymless_schema):
        query = QueryGraph.build(keywords=["height"])
        matrix = CodebookMatcher().match(query, synonymless_schema)
        assert matrix.get("kw:height", "person.stature") == 1.0

    def test_same_category_partial_credit(self, synonymless_schema):
        query = QueryGraph.build(keywords=["height"])
        matrix = CodebookMatcher().match(query, synonymless_schema)
        # body_mass is the mass concept: same UNIT category.
        assert matrix.get("kw:height", "person.body_mass") == \
            pytest.approx(0.4)

    def test_unannotated_abstains(self, synonymless_schema):
        query = QueryGraph.build(keywords=["zorp"])
        matrix = CodebookMatcher().match(query, synonymless_schema)
        assert matrix.values.max() == 0.0

    def test_fragment_attributes_matched(self, synonymless_schema):
        from repro.parsers.ddl import parse_ddl
        fragment = parse_ddl("CREATE TABLE p (height DECIMAL(5,2));")
        query = QueryGraph.build(fragments=[fragment])
        matrix = CodebookMatcher().match(query, synonymless_schema)
        assert matrix.get("f0:p.height", "person.stature") == 1.0

    def test_bad_partial_score_rejected(self):
        with pytest.raises(ValueError):
            CodebookMatcher(same_category_score=1.5)

    def test_in_ensemble(self, synonymless_schema):
        """The matcher composes with the standard ensemble."""
        from repro.matching.ensemble import MatcherEnsemble
        from repro.matching.name import NameMatcher
        ensemble = MatcherEnsemble([NameMatcher(), CodebookMatcher()])
        query = QueryGraph.build(keywords=["height"])
        result = ensemble.match(query, synonymless_schema)
        # Name matcher alone cannot see stature; codebook carries it.
        assert result.combined.get("kw:height", "person.stature") >= 0.5

    def test_engine_with_codebook_finds_synonymless_schema(
            self, synonymless_schema):
        from repro.core.engine import SchemrEngine
        from repro.index.documents import document_from_schema
        from repro.index.inverted import InvertedIndex
        from repro.matching.context import ContextMatcher
        from repro.matching.ensemble import MatcherEnsemble
        from repro.matching.name import NameMatcher
        index = InvertedIndex()
        index.add(document_from_schema(synonymless_schema))
        engine = SchemrEngine(
            index=index,
            ensemble=MatcherEnsemble([NameMatcher(), ContextMatcher(),
                                      CodebookMatcher()]))
        # 'person' gets it past candidate extraction; the codebook then
        # scores stature/mass against height/weight.
        results = engine.search(keywords="person height weight")
        assert results
        assert results[0].match_count >= 2
