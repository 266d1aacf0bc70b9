"""Tests for the match-phase acceleration layer.

Covers :class:`SchemaMatchProfile` correctness against the from-scratch
computations, :class:`ProfileStore` cache behaviour, the golden
equivalence of the cold / profiled / parallel engine paths, the
one-adjacency-build-per-candidate regression, and the ensemble's cheap
container properties.
"""

import pytest

import repro.matching.context as context_mod
import repro.matching.profile as profile_mod
import repro.scoring.neighborhood as neighborhood_mod
from repro.core.config import SchemrConfig
from repro.core.engine import DictSchemaSource, SchemrEngine
from repro.errors import MatchError, RepositoryError, SchemaError
from repro.index.documents import document_from_schema
from repro.index.inverted import InvertedIndex
from repro.matching.context import element_context
from repro.matching.datatype import type_family
from repro.matching.ensemble import MatcherEnsemble
from repro.matching.ngram import weighted_gram_profile
from repro.matching.normalize import (
    analysed_words,
    expand_abbreviations,
    normalize_words,
)
from repro.matching.profile import (
    MatchScratch,
    ProfileStore,
    SchemaMatchProfile,
)
from repro.model.graph import entity_adjacency
from repro.scoring.neighborhood import NeighborhoodIndex, entity_components
from repro.text.splitter import split_words_lower

from tests.conftest import (
    PAPER_KEYWORDS,
    build_clinic_schema,
    build_conservation_schema,
    build_hr_schema,
)


@pytest.fixture
def clinic_profile(clinic_schema) -> SchemaMatchProfile:
    clinic_schema.schema_id = 1
    return SchemaMatchProfile.build(clinic_schema)


class TestSchemaMatchProfile:
    def test_element_paths_in_schema_order(self, clinic_schema,
                                           clinic_profile):
        assert clinic_profile.element_paths == \
            [ref.path for ref in clinic_schema.elements()]

    def test_words_match_from_scratch_normalization(self, clinic_schema,
                                                    clinic_profile):
        for ref in clinic_schema.elements():
            assert clinic_profile.words(ref.path) == \
                tuple(normalize_words(ref.local_name, expand=True))
            assert clinic_profile.words(ref.path, expand=False) == \
                tuple(normalize_words(ref.local_name, expand=False))

    def test_unknown_path_rejected(self, clinic_profile):
        with pytest.raises(SchemaError):
            clinic_profile.words("no.such.element")

    def test_context_terms_match_element_context(self, clinic_schema,
                                                 clinic_profile):
        adjacency = entity_adjacency(clinic_schema)
        for ref in clinic_schema.elements():
            assert clinic_profile.context_terms[ref.path] == \
                element_context(clinic_schema, ref, adjacency)

    def test_component_map_matches_neighborhood_index(self, clinic_schema,
                                                      clinic_profile):
        cold = NeighborhoodIndex(clinic_schema)
        fast = clinic_profile.neighborhood_index()
        entities = list(clinic_schema.entities)
        for a in entities:
            for b in entities:
                assert fast.relation(a, b) == cold.relation(a, b)

    def test_neighborhood_index_is_cached(self, clinic_profile):
        assert clinic_profile.neighborhood_index() is \
            clinic_profile.neighborhood_index()

    def test_type_families_match(self, clinic_schema, clinic_profile):
        for entity in clinic_schema.entities.values():
            for attr in entity.attributes:
                path = f"{entity.name}.{attr.name}"
                assert clinic_profile.type_families[path] == \
                    type_family(attr.data_type)

    def test_entity_attr_words(self, clinic_schema, clinic_profile):
        for entity in clinic_schema.entities.values():
            expected = set()
            for attr in entity.attributes:
                expected.update(normalize_words(attr.name))
            assert clinic_profile.entity_attr_words[entity.name] == expected

    def test_serialization_round_trip(self, clinic_profile):
        restored = SchemaMatchProfile.from_dict(clinic_profile.to_dict())
        assert restored.schema_id == clinic_profile.schema_id
        assert restored.element_paths == clinic_profile.element_paths
        assert restored.words_expanded == clinic_profile.words_expanded
        assert restored.words_plain == clinic_profile.words_plain
        assert restored.context_terms == clinic_profile.context_terms
        assert restored.adjacency == clinic_profile.adjacency
        assert restored.component_of == clinic_profile.component_of
        assert restored.type_families == clinic_profile.type_families
        assert restored.entity_attr_words == clinic_profile.entity_attr_words
        assert restored.word_grams == clinic_profile.word_grams

    def test_round_trip_is_json_safe(self, clinic_profile):
        import json
        payload = json.dumps(clinic_profile.to_dict())
        restored = SchemaMatchProfile.from_dict(json.loads(payload))
        assert restored.element_paths == clinic_profile.element_paths

    def test_from_dict_missing_key_rejected(self):
        with pytest.raises(SchemaError, match="missing key"):
            SchemaMatchProfile.from_dict({"schema_id": 1})


def _reference_profile(schema) -> SchemaMatchProfile:
    """Every profile field derived from first principles — the splitter
    called directly, no identifier memo, contexts from the cold
    matcher's ``element_context``."""
    refs = list(schema.elements())

    def words(name, expand):
        split = split_words_lower(name)
        return tuple(expand_abbreviations(split) if expand else split)

    words_expanded = {ref.path: words(ref.local_name, True) for ref in refs}
    words_plain = {ref.path: words(ref.local_name, False) for ref in refs}
    adjacency = entity_adjacency(schema)
    word_grams = {}
    for table in (words_expanded, words_plain):
        for analysed in table.values():
            if analysed:
                for text in (*analysed, "".join(analysed)):
                    word_grams[text] = weighted_gram_profile(text)
    return SchemaMatchProfile(
        schema_id=schema.schema_id,
        element_paths=[ref.path for ref in refs],
        entity_of={ref.path: ref.entity for ref in refs},
        words_expanded=words_expanded,
        words_plain=words_plain,
        context_terms={
            ref.path: frozenset(element_context(schema, ref, adjacency))
            for ref in refs},
        adjacency={name: frozenset(neighbors)
                   for name, neighbors in adjacency.items()},
        component_of={
            entity: component_id
            for component_id, component in enumerate(
                entity_components(schema, adjacency=adjacency))
            for entity in component},
        type_families={f"{entity.name}.{attr.name}": type_family(
                           attr.data_type)
                       for entity in schema.entities.values()
                       for attr in entity.attributes},
        entity_attr_words={
            entity.name: frozenset(
                word for attr in entity.attributes
                for word in words(attr.name, True))
            for entity in schema.entities.values()},
        word_grams=word_grams,
    )


class TestProfileOverCorpus:
    """``build`` analyses each name once through the process memo; the
    result must equal the from-scratch derivation for every schema of a
    generated corpus, whether the memo starts cold or warm."""

    @pytest.fixture(scope="class")
    def corpus(self):
        from repro.workload.catalog import regenerate_corpus
        return [generated.schema
                for generated in regenerate_corpus(7, 200)]

    def test_profiles_equal_reference_cold_and_warm_memo(self, corpus):
        assert len(corpus) > 100
        analysed_words.cache_clear()
        for schema in corpus:
            expected = _reference_profile(schema)
            assert SchemaMatchProfile.build(schema) == expected
            assert SchemaMatchProfile.build(schema) == expected


class _CountingSource(DictSchemaSource):
    def __init__(self, schemas):
        super().__init__(schemas)
        self.calls = 0

    def get_schema(self, schema_id):
        self.calls += 1
        return super().get_schema(schema_id)


def _schemas_by_id():
    schemas = {}
    for i, builder in enumerate([build_clinic_schema, build_hr_schema,
                                 build_conservation_schema], start=1):
        schema = builder()
        schema.schema_id = i
        schemas[i] = schema
    return schemas


class TestProfileStore:
    def test_read_through_get_schema(self):
        source = _CountingSource(_schemas_by_id())
        store = ProfileStore(source)
        assert store.get_schema(1).name == "clinic_emr"
        assert store.get_schema(1).name == "clinic_emr"
        assert source.calls == 1  # second read was a cache hit
        assert store.hits == 1 and store.misses == 1

    def test_profile_and_schema_share_one_entry(self):
        source = _CountingSource(_schemas_by_id())
        store = ProfileStore(source)
        profile = store.get_profile(2)
        assert profile.schema_id == 2
        assert store.get_schema(2).schema_id == 2
        assert source.calls == 1

    def test_put_is_eager(self):
        source = _CountingSource(_schemas_by_id())
        store = ProfileStore(source)
        schema = source.get_schema(3)
        source.calls = 0
        store.put(schema)
        assert 3 in store
        assert store.get_profile(3).schema_id == 3
        assert source.calls == 0  # served from the eager entry

    def test_put_requires_schema_id(self):
        store = ProfileStore(DictSchemaSource({}))
        with pytest.raises(RepositoryError):
            store.put(build_clinic_schema())  # no id assigned

    def test_invalidate(self):
        store = ProfileStore(DictSchemaSource(_schemas_by_id()))
        store.get_profile(1)
        assert store.invalidate(1) is True
        assert store.invalidate(1) is False
        assert 1 not in store

    def test_clear(self):
        store = ProfileStore(DictSchemaSource(_schemas_by_id()))
        store.get_profile(1)
        store.get_profile(2)
        store.clear()
        assert len(store) == 0

    def test_lru_eviction(self):
        store = ProfileStore(DictSchemaSource(_schemas_by_id()), capacity=2)
        store.get_profile(1)
        store.get_profile(2)
        store.get_schema(1)   # touch 1 so 2 is the LRU entry
        store.get_profile(3)  # evicts 2
        assert 1 in store and 3 in store
        assert 2 not in store
        assert len(store) == 2

    def test_bad_capacity_rejected(self):
        with pytest.raises(RepositoryError):
            ProfileStore(DictSchemaSource({}), capacity=0)


def _build_engine(config=None, profiled=False):
    schemas = _schemas_by_id()
    index = InvertedIndex()
    for schema in schemas.values():
        index.add(document_from_schema(schema))
    source = DictSchemaSource(schemas)
    if profiled:
        source = ProfileStore(source)
    return SchemrEngine(index=index, source=source, config=config)


def _result_fingerprint(results):
    return [(r.schema_id, r.name, r.score, r.coarse_score, r.match_count,
             r.best_anchor, r.element_scores,
             [(m.query_label, m.element_path, m.score)
              for m in r.element_matches])
            for r in results]


class TestGoldenEquivalence:
    QUERIES = [
        {"keywords": PAPER_KEYWORDS},
        {"keywords": "employee salary department"},
        {"keywords": "species site observation date"},
        {"fragment": "CREATE TABLE patient (height DECIMAL, "
                     "gender CHAR(1));"},
        {"keywords": "diagnosis",
         "fragment": "CREATE TABLE patient (height DECIMAL);"},
    ]

    def test_profiled_path_matches_cold_path(self):
        cold = _build_engine()
        fast = _build_engine(profiled=True)
        for query in self.QUERIES:
            assert _result_fingerprint(fast.search(**query)) == \
                _result_fingerprint(cold.search(**query))

    def test_parallel_path_matches_cold_path(self):
        cold = _build_engine()
        parallel = _build_engine(profiled=True,
                                 config=SchemrConfig(match_workers=4))
        try:
            for query in self.QUERIES:
                assert _result_fingerprint(parallel.search(**query)) == \
                    _result_fingerprint(cold.search(**query))
        finally:
            parallel.close()

    def test_parallel_without_profiles_matches_cold_path(self):
        cold = _build_engine()
        with _build_engine(config=SchemrConfig(match_workers=3)) as parallel:
            for query in self.QUERIES:
                assert _result_fingerprint(parallel.search(**query)) == \
                    _result_fingerprint(cold.search(**query))

    def test_full_ensemble_equivalence(self):
        from repro.matching.datatype import DataTypeMatcher
        from repro.matching.exact import ExactMatcher
        from repro.matching.structure import StructureMatcher
        from repro.matching.synonym import SynonymMatcher
        ensemble = MatcherEnsemble(matchers=[
            ExactMatcher(), SynonymMatcher(), DataTypeMatcher(),
            StructureMatcher(),
        ])
        schemas = _schemas_by_id()
        query_kwargs = {"keywords": "patient stature sex",
                        "fragment": "CREATE TABLE patient "
                                    "(height DECIMAL, gender CHAR(1));"}
        index = InvertedIndex()
        for schema in schemas.values():
            index.add(document_from_schema(schema))
        cold = SchemrEngine(index=index,
                            source=DictSchemaSource(schemas),
                            ensemble=ensemble)
        fast = SchemrEngine(index=index,
                            source=ProfileStore(DictSchemaSource(schemas)),
                            ensemble=ensemble)
        assert _result_fingerprint(fast.search(**query_kwargs)) == \
            _result_fingerprint(cold.search(**query_kwargs))

    def test_matcher_level_equivalence(self, clinic_schema):
        from repro.model.query import QueryGraph
        clinic_schema.schema_id = 1
        profile = SchemaMatchProfile.build(clinic_schema)
        query = QueryGraph.build(keywords=PAPER_KEYWORDS)
        ensemble = MatcherEnsemble.default()
        cold = ensemble.match(query, clinic_schema)
        fast = ensemble.match(query, clinic_schema,
                              profile=profile, scratch=MatchScratch())
        assert cold.combined.row_labels == fast.combined.row_labels
        assert cold.combined.col_labels == fast.combined.col_labels
        assert (cold.combined.values == fast.combined.values).all()
        for name, matrix in cold.per_matcher.items():
            assert (matrix.values == fast.per_matcher[name].values).all()


class TestAdjacencySharing:
    def test_one_adjacency_build_per_candidate(self, monkeypatch):
        """With profiles, the FK adjacency is built once per candidate
        (at ingest) instead of twice per candidate per query (context
        matcher + tightness scorer)."""
        calls = {"n": 0}
        real = entity_adjacency

        def counting(schema):
            calls["n"] += 1
            return real(schema)

        for module in (profile_mod, context_mod, neighborhood_mod):
            monkeypatch.setattr(module, "entity_adjacency", counting)

        engine = _build_engine(profiled=True)
        assert calls["n"] == 0  # profiles are built lazily, none yet
        engine.search(keywords="name gender salary species")
        candidates = engine.last_profile.phase_items["schema_matching"][0]
        assert candidates > 1
        assert calls["n"] == candidates  # one build per candidate
        engine.search(keywords="name gender salary species")
        assert calls["n"] == candidates  # repeat queries build nothing

    def test_cold_path_builds_twice_per_candidate(self, monkeypatch):
        calls = {"n": 0}
        real = entity_adjacency

        def counting(schema):
            calls["n"] += 1
            return real(schema)

        for module in (profile_mod, context_mod, neighborhood_mod):
            monkeypatch.setattr(module, "entity_adjacency", counting)

        engine = _build_engine()
        engine.search(keywords="name gender salary species")
        candidates = engine.last_profile.phase_items["schema_matching"][0]
        assert candidates > 1
        assert calls["n"] == 2 * candidates


class TestEnsembleCheapProperties:
    def test_matchers_not_copied_per_access(self):
        ensemble = MatcherEnsemble.default()
        assert ensemble.matchers is ensemble.matchers
        assert isinstance(ensemble.matchers, tuple)

    def test_matcher_names_not_copied_per_access(self):
        ensemble = MatcherEnsemble.default()
        assert ensemble.matcher_names is ensemble.matcher_names

    def test_weights_view_is_live_and_read_only(self):
        ensemble = MatcherEnsemble.default()
        view = ensemble.weights
        assert view is ensemble.weights
        ensemble.set_weights({"name": 2.0})
        assert view["name"] == 2.0  # live view reflects the update
        with pytest.raises(TypeError):
            view["name"] = 5.0  # type: ignore[index]

    def test_rejected_update_leaves_weights_untouched(self):
        ensemble = MatcherEnsemble.default()
        before = dict(ensemble.weights)
        with pytest.raises(MatchError):
            ensemble.set_weights({"name": 0.0, "context": 0.0})
        assert dict(ensemble.weights) == before
