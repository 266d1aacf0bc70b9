"""Property-based tests for the extension modules (hypothesis)."""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.documents import Document
from repro.index.inverted import InvertedIndex
from repro.index.segments import MmapSegment, write_segment
from repro.mapping.derive import derive_mapping
from repro.matching.base import SimilarityMatrix
from repro.parsers.ddl import parse_ddl
from repro.repository.exporter import export_ddl
from repro.viz.summarize import entity_importance, summarize_schema

from tests.test_properties import schemas, words


class TestExporterProperties:
    @settings(max_examples=40)
    @given(schemas())
    def test_ddl_roundtrip_preserves_structure(self, schema):
        rebuilt = parse_ddl(export_ddl(schema), schema.name)
        assert set(rebuilt.entities) == set(schema.entities)
        assert rebuilt.attribute_count == schema.attribute_count
        # FK multiset survives (export collapses exact duplicates only).
        assert {str(fk) for fk in rebuilt.foreign_keys} == \
            {str(fk) for fk in schema.foreign_keys}

    @settings(max_examples=40)
    @given(schemas())
    def test_ddl_roundtrip_preserves_attribute_order(self, schema):
        rebuilt = parse_ddl(export_ddl(schema), schema.name)
        for entity in schema.entities.values():
            rebuilt_names = [a.name for a in
                             rebuilt.entity(entity.name).attributes]
            assert rebuilt_names == [a.name for a in entity.attributes]


class TestIndexStoreProperties:
    @settings(max_examples=30)
    @given(st.lists(st.lists(words, min_size=1, max_size=6),
                    min_size=1, max_size=6))
    def test_persistence_preserves_statistics(self, term_lists):
        import tempfile
        from pathlib import Path
        index = InvertedIndex()
        for i, terms in enumerate(term_lists):
            index.add(Document(i, f"doc{i}", terms=terms))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "segment.seg"
            write_segment(path, index)
            loaded = MmapSegment(path)
            assert loaded.document_count == index.document_count
            assert loaded.term_count == index.term_count
            for term in index.vocabulary():
                assert loaded.document_frequency(term) == \
                    index.document_frequency(term)


class TestSummarizeProperties:
    @settings(max_examples=40)
    @given(schemas(), st.integers(min_value=1, max_value=6))
    def test_summary_invariants(self, schema, k):
        summary = summarize_schema(schema, k=k)
        # Size bound and importance ordering.
        assert len(summary.entities) == min(k, schema.entity_count)
        kept = set(summary.entities)
        importance = entity_importance(schema)
        if kept and len(kept) < schema.entity_count:
            worst_kept = min(importance[name] for name in kept)
            best_dropped = max(importance[name] for name in importance
                               if name not in kept)
            assert worst_kept >= best_dropped - 1e-9
        # Edges only connect kept entities.
        for edge in summary.edges:
            assert edge.source in kept
            assert edge.target in kept
            assert edge.source != edge.target

    @settings(max_examples=40)
    @given(schemas())
    def test_importance_is_distribution(self, schema):
        importance = entity_importance(schema)
        assert all(value >= 0 for value in importance.values())
        if importance:
            assert sum(importance.values()) == pytest.approx(1.0)


class TestMappingProperties:
    matrix_values = st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3),
                  st.floats(min_value=0.0, max_value=1.0)),
        min_size=0, max_size=12)

    @settings(max_examples=60)
    @given(matrix_values, st.floats(min_value=0.05, max_value=1.0))
    def test_mapping_is_one_to_one_and_thresholded(self, cells, threshold):
        rows = [f"q{i}" for i in range(4)]
        cols = [f"e{j}" for j in range(4)]
        matrix = SimilarityMatrix(rows, cols)
        for i, j, value in cells:
            if value > matrix.get(rows[i], cols[j]):
                matrix.set(rows[i], cols[j], value)
        mapping = derive_mapping(matrix, threshold=threshold)
        sources = [c.source_element for c in mapping.correspondences]
        targets = [c.target_element for c in mapping.correspondences]
        assert len(sources) == len(set(sources))
        assert len(targets) == len(set(targets))
        assert all(c.confidence >= threshold
                   for c in mapping.correspondences)

    @settings(max_examples=60)
    @given(matrix_values)
    def test_greedy_picks_global_best_pair_first(self, cells):
        rows = [f"q{i}" for i in range(4)]
        cols = [f"e{j}" for j in range(4)]
        matrix = SimilarityMatrix(rows, cols)
        for i, j, value in cells:
            if value > matrix.get(rows[i], cols[j]):
                matrix.set(rows[i], cols[j], value)
        mapping = derive_mapping(matrix, threshold=0.05)
        if mapping.correspondences:
            best = max(matrix.values.flatten())
            assert mapping.correspondences[0].confidence == \
                pytest.approx(best)


class TestCodebookProperties:
    attribute_names = st.text(
        alphabet=string.ascii_lowercase + "_", min_size=1, max_size=20)

    @settings(max_examples=80)
    @given(attribute_names, st.sampled_from(
        ["", "INTEGER", "VARCHAR(100)", "DATE", "BLOB", "DECIMAL(5,2)"]))
    def test_annotator_is_total_and_consistent(self, name, data_type):
        from repro.codebook.annotate import annotate_attribute
        first = annotate_attribute(name, data_type)
        second = annotate_attribute(name, data_type)
        if first is None:
            assert second is None
        else:
            assert second is not None
            assert first.concept.name == second.concept.name
            assert first.score >= 1.0


class TestFuzzyProperties:
    from hypothesis import strategies as _st
    vocab_lists = _st.lists(words, min_size=1, max_size=30, unique=True)

    @settings(max_examples=60)
    @given(vocab_lists, words)
    def test_suggestions_bounded_and_sorted(self, vocabulary, probe):
        from repro.index.fuzzy import TrigramIndex
        index = TrigramIndex.from_terms(vocabulary, max_suggestions=3)
        suggestions = index.suggest(probe)
        assert len(suggestions) <= 3
        sims = [s.similarity for s in suggestions]
        assert sims == sorted(sims, reverse=True)
        assert all(0.0 < s.similarity <= 1.0 for s in suggestions)
        assert all(s.term != probe for s in suggestions)
        assert all(s.term in vocabulary for s in suggestions)

    @settings(max_examples=60)
    @given(words)
    def test_trigrams_deterministic(self, term):
        from repro.index.fuzzy import term_trigrams
        assert term_trigrams(term) == term_trigrams(term)
        if len(term) >= 2:
            # Sets collapse repeated trigrams ("aaaa"), so <= not ==.
            assert 1 <= len(term_trigrams(term)) <= len(term) + 1


class TestDedupProperties:
    @settings(max_examples=40)
    @given(schemas())
    def test_fingerprint_invariant_under_restyle(self, schema):
        """Re-rendering every element name in a delimiter style must not
        change the fingerprint."""
        from repro.core.dedup import schema_fingerprint
        from repro.model.elements import Attribute, Entity
        from repro.model.schema import Schema

        def restyle(name: str) -> str:
            from repro.matching.normalize import normalize_words
            parts = normalize_words(name, expand=False)
            return "-".join(parts) if parts else name

        restyled = Schema(name=schema.name)
        for entity in schema.entities.values():
            new_entity = Entity(restyle(entity.name) or entity.name)
            seen = set()
            for attr in entity.attributes:
                renamed = restyle(attr.name) or attr.name
                if renamed in seen:
                    continue
                seen.add(renamed)
                new_entity.add_attribute(Attribute(renamed))
            try:
                restyled.add_entity(new_entity)
            except Exception:  # lint: fault-boundary (property becomes vacuous, not wrong)
                return  # restyling collided; property vacuous here
        if set(schema.entities) != {e for e in restyled.entities}:
            # entity names collided under restyling; skip
            if len(restyled.entities) != len(schema.entities):
                return
        a = schema_fingerprint(schema)
        b = schema_fingerprint(restyled)
        assert a == b


class TestSuggestProperties:
    @settings(max_examples=40)
    @given(st.lists(st.lists(words, min_size=1, max_size=5),
                    min_size=1, max_size=5), words)
    def test_every_suggestion_has_matching_prefix(self, term_lists, probe):
        from repro.index.suggest import PrefixSuggester
        index = InvertedIndex()
        for i, terms in enumerate(term_lists):
            index.add(Document(i, f"d{i}", terms=terms))
        suggester = PrefixSuggester(index)
        prefix = probe[:3]
        for suggestion in suggester.suggest(prefix):
            assert suggestion.term.startswith(prefix.lower())
            assert suggestion.document_frequency >= 1
