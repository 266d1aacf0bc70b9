"""Tests for the match-phase acceleration layer.

Covers :class:`SchemaMatchProfile` correctness against the from-scratch
computations, :class:`ProfileStore` cache behaviour, the golden
equivalence of the cold / profiled / parallel engine paths, the
one-adjacency-build-per-candidate regression, and the ensemble's cheap
container properties.
"""

import sys
import threading

import pytest

import repro.matching.context as context_mod
import repro.matching.profile as profile_mod
import repro.scoring.neighborhood as neighborhood_mod
from repro.core.engine import SchemrEngine
from repro.errors import (MatchError, RepositoryError, SchemaError,
                          SchemaNotFound)
from repro.index.documents import document_from_schema
from repro.index.inverted import InvertedIndex
from repro.matching.context import element_context
from repro.matching.datatype import type_family
from repro.matching.ensemble import MatcherEnsemble
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
from repro.model.schema import Schema
from repro.scoring.neighborhood import NeighborhoodIndex, entity_components
from repro.text.splitter import split_words_lower

from tests.conftest import (
    PAPER_KEYWORDS,
    build_clinic_schema,
    build_conservation_schema,
    build_hr_schema,
    cold_engine,
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

    def test_attribute_counts(self, clinic_schema, clinic_profile):
        for entity in clinic_schema.entities.values():
            assert clinic_profile.attribute_counts[entity.name] == \
                len(entity.attributes)


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
    return SchemaMatchProfile(
        schema_id=schema.schema_id,
        element_paths=[ref.path for ref in refs],
        entity_of={ref.path: ref.entity for ref in refs},
        words_expanded=words_expanded,
        words_plain=words_plain,
        context_terms={
            ref.path: frozenset(element_context(schema, ref, adjacency))
            for ref in refs},
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
        attribute_counts={entity.name: len(entity.attributes)
                          for entity in schema.entities.values()},
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


class _CountingSource:
    """By-id payloads for a :class:`ProfileStore`, counting the reads."""

    def __init__(self, schemas):
        self.payloads = {schema_id: schema.to_payload()
                         for schema_id, schema in schemas.items()}
        self.calls = 0

    def payload(self, schema_id):
        self.calls += 1
        try:
            return self.payloads[schema_id]
        except KeyError:
            raise SchemaNotFound(f"no schema {schema_id}") from None


def _schemas_by_id():
    schemas = {}
    for i, builder in enumerate([build_clinic_schema, build_hr_schema,
                                 build_conservation_schema], start=1):
        schema = builder()
        schema.schema_id = i
        schemas[i] = schema
    return schemas


def _renamed_payload(schema_id, name):
    schema = _schemas_by_id()[schema_id]
    schema.name = name
    return schema.to_payload()


class TestProfileStore:
    def test_read_through_get_schema(self):
        source = _CountingSource(_schemas_by_id())
        store = ProfileStore(source)
        assert store.get_schema(1).name == "clinic_emr"
        assert store.get_schema(1).name == "clinic_emr"
        # Every by-id read asks the source for the current payload; only
        # the first decodes it.
        assert source.calls == 2
        assert store.hits == 1 and store.misses == 1

    def test_profile_and_schema_share_one_entry(self):
        source = _CountingSource(_schemas_by_id())
        store = ProfileStore(source)
        profile = store.get_profile(2)
        assert profile.schema_id == 2
        assert store.get_schema(2).schema_id == 2
        assert store.misses == 1 and store.hits == 1

    def test_lookup_is_one_cache_lookup(self):
        payload = _CountingSource(_schemas_by_id()).payloads[1]
        store = ProfileStore()
        schema, profile = store.lookup(1, payload)
        assert (store.hits, store.misses) == (0, 1)
        again = store.lookup(1, memoryview(payload))
        assert again == (schema, profile)
        assert again[0] is schema
        assert (store.hits, store.misses) == (1, 1)

    def test_put_requires_schema_id(self):
        """An entry is admitted only for the id its payload names."""
        payloads = _CountingSource(_schemas_by_id()).payloads
        store = ProfileStore()
        with pytest.raises(RepositoryError, match="holds schema 2"):
            store.lookup(1, payloads[2])
        with pytest.raises(RepositoryError):
            store.lookup(1, build_clinic_schema().to_payload())
        assert len(store) == 0

    def test_invalidate(self):
        """A changed payload supersedes the entry: no call invalidates,
        and the stale copy is never served."""
        payloads = _CountingSource(_schemas_by_id()).payloads
        store = ProfileStore()
        store.lookup(1, payloads[1])
        renamed = _renamed_payload(1, "clinic_v2")
        assert store.lookup(1, renamed)[0].name == "clinic_v2"
        assert store.lookup(1, payloads[1])[0].name == "clinic_emr"
        assert (store.hits, store.misses) == (0, 3)
        assert len(store) == 1

    def test_lru_eviction(self):
        store = ProfileStore(_CountingSource(_schemas_by_id()), capacity=2)
        store.get_profile(1)
        store.get_profile(2)
        store.get_schema(1)   # touch 1 so 2 is the LRU entry
        store.get_profile(3)  # evicts 2
        assert 1 in store and 3 in store
        assert 2 not in store
        assert len(store) == 2
        assert store.evictions == 1

    def test_bad_capacity_rejected(self):
        with pytest.raises(RepositoryError):
            ProfileStore(None, capacity=0)

    def test_by_id_read_needs_a_source(self):
        with pytest.raises(RepositoryError, match="no source"):
            ProfileStore().get_schema(1)


def _park_first_build(monkeypatch):
    """Make the first profile build stop until released; returns
    (parked, release)."""
    parked, release = threading.Event(), threading.Event()
    real = SchemaMatchProfile.build
    calls = []

    def build(schema):
        calls.append(schema.schema_id)
        if len(calls) == 1:
            parked.set()
            assert release.wait(5)
        return real(schema)

    monkeypatch.setattr(SchemaMatchProfile, "build", staticmethod(build))
    return parked, release


class _LiveSource:
    """A payload source whose schemas a test replaces while the store
    reads."""

    def __init__(self, schemas):
        self.payloads = {schema_id: schema.to_payload()
                         for schema_id, schema in schemas.items()}

    def payload(self, schema_id):
        return self.payloads[schema_id]


def _stress_round(store, source, round_):
    """One writer replacing payloads 30 times beside four readers,
    more threads than cores; returns once all have stopped."""
    stop = threading.Event()
    schemas = _schemas_by_id()

    def write():
        for version in range(30):
            schema_id = version % 3 + 1
            newer = schemas[schema_id].copy()
            newer.description = f"v{round_}.{version}"
            source.payloads[schema_id] = newer.to_payload()
        stop.set()

    def read(offset):
        while not stop.is_set():
            for schema_id in (1, 2, 3):
                store.get_schema((schema_id + offset) % 3 + 1)

    threads = [threading.Thread(target=write)] + [
        threading.Thread(target=read, args=(i,)) for i in range(4)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
    finally:
        stop.set()
    assert not any(thread.is_alive() for thread in threads)


class TestProfileStoreFillRace:
    """A fill of an older payload that finishes after a newer one can
    overwrite the entry, but never gets it served for the newer
    payload."""

    def test_put_during_fill_is_served(self, monkeypatch):
        payloads = _CountingSource(_schemas_by_id()).payloads
        newer = _renamed_payload(1, "clinic_v2")
        store = ProfileStore()
        parked, release = _park_first_build(monkeypatch)
        filled = []
        fill = threading.Thread(target=lambda: filled.append(
            store.lookup(1, payloads[1])[0]))
        fill.start()
        try:
            assert parked.wait(5)
            assert store.lookup(1, newer)[0].name == "clinic_v2"
        finally:
            release.set()
            fill.join(5)
        assert not fill.is_alive()
        assert filled[0].name == "clinic_emr"  # the caller gets its fetch
        assert store.lookup(1, newer)[0].name == "clinic_v2"
        assert store.lookup(1, newer)[1].schema_id == 1

    def test_stress_resident_entries_match_the_source(self):
        """Readers fill while a writer replaces payloads.  Whenever all
        threads have stopped, every by-id read is the source's current
        copy."""
        source = _LiveSource(_schemas_by_id())
        store = ProfileStore(source, capacity=2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(40):
                _stress_round(store, source, round_)
                for schema_id in (1, 2, 3):
                    current = Schema.from_payload(source.payloads[schema_id])
                    assert store.get_schema(schema_id) == current
        finally:
            sys.setswitchinterval(interval)

    def test_failed_fill_leaves_no_token_behind(self, monkeypatch):
        """A fill that raises caches nothing."""
        store = ProfileStore(_CountingSource({}))
        with pytest.raises(SchemaNotFound):
            store.get_schema(7)  # the payload read raises
        with pytest.raises(SchemaError):
            store.lookup(7, b"{not json")  # the decode raises
        assert len(store) == 0

        def failing_build(schema):
            raise MatchError("profile build failed")

        store = ProfileStore(_CountingSource(_schemas_by_id()))
        monkeypatch.setattr(SchemaMatchProfile, "build",
                            staticmethod(failing_build))
        with pytest.raises(MatchError):
            store.get_schema(1)  # the build raises
        assert 1 not in store and store.misses == 1


def _build_index():
    index = InvertedIndex()
    for schema in _schemas_by_id().values():
        index.add(document_from_schema(schema))
    return index


def _build_engine(profiled=False, store=None):
    """The three schemas behind an engine.  ``profiled`` warms its
    profile cache with every query first, so the comparison pits
    cached profiles against the unprofiled reference path."""
    engine = SchemrEngine(index=_build_index(), source=store)
    if profiled:
        for query in TestGoldenEquivalence.QUERIES:
            engine.search(**query)
        assert engine.search(**TestGoldenEquivalence.QUERIES[0])
    return engine


def _count_decodes(monkeypatch):
    """Spy on payload decodes and profile builds; returns the list
    each appends to."""
    calls = []
    from_payload = Schema.from_payload.__func__
    build = SchemaMatchProfile.build.__func__
    monkeypatch.setattr(Schema, "from_payload", classmethod(
        lambda cls, payload: calls.append("decode")
        or from_payload(cls, payload)))
    monkeypatch.setattr(SchemaMatchProfile, "build", classmethod(
        lambda cls, schema: calls.append("build") or build(cls, schema)))
    return calls


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

    def test_profiled_path_matches_cold_path(self, monkeypatch):
        fast = _build_engine(profiled=True)
        cold = cold_engine(_build_index())  # no profiles, no cache
        decoded = _count_decodes(monkeypatch)
        fast_pages = [_result_fingerprint(fast.search(**query))
                      for query in self.QUERIES]
        assert decoded == []  # the served path scored index records
        monkeypatch.undo()
        assert fast_pages == [_result_fingerprint(cold.search(**query))
                              for query in self.QUERIES]

    def test_full_ensemble_equivalence(self, monkeypatch):
        from repro.matching.datatype import DataTypeMatcher
        from repro.matching.exact import ExactMatcher
        from repro.matching.structure import StructureMatcher
        from repro.matching.synonym import SynonymMatcher
        ensemble = MatcherEnsemble(matchers=[
            ExactMatcher(), SynonymMatcher(), DataTypeMatcher(),
            StructureMatcher(),
        ])
        query_kwargs = {"keywords": "patient stature sex",
                        "fragment": "CREATE TABLE patient "
                                    "(height DECIMAL, gender CHAR(1));"}
        index = _build_index()
        cold = cold_engine(index, ensemble=ensemble)
        store = ProfileStore()
        fast = SchemrEngine(index=index, source=store, ensemble=ensemble)
        assert _result_fingerprint(fast.search(**query_kwargs)) == \
            _result_fingerprint(cold.search(**query_kwargs))
        decoded = _count_decodes(monkeypatch)
        page = _result_fingerprint(fast.search(**query_kwargs))
        assert decoded == []  # six column matchers, no schema decoded
        monkeypatch.undo()
        assert page == _result_fingerprint(cold.search(**query_kwargs))

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
        """The FK adjacency is built at most once per candidate, at
        ingest: each document's match record carries it, so a search
        builds none, instead of twice per candidate per query (context
        matcher + tightness scorer)."""
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
        assert calls["n"] == 0  # the records carry it
        engine.search(keywords="name gender salary species")
        assert calls["n"] == 0  # repeat queries build nothing

    def test_cold_path_builds_twice_per_candidate(self, monkeypatch):
        """Without a profile (the library's unprofiled matcher and
        scorer calls) the context matcher and the tightness scorer
        each build the adjacency."""
        from repro.model.query import QueryGraph
        from repro.scoring.tightness import TightnessScorer
        calls = {"n": 0}
        real = entity_adjacency

        def counting(schema):
            calls["n"] += 1
            return real(schema)

        for module in (profile_mod, context_mod, neighborhood_mod):
            monkeypatch.setattr(module, "entity_adjacency", counting)

        query = QueryGraph.build(
            keywords="name gender salary species".split())
        ensemble = MatcherEnsemble.default()
        scorer = TightnessScorer()
        schemas = list(_schemas_by_id().values())
        for schema in schemas:
            scores = ensemble.match(query, schema).combined.max_per_column()
            scorer.score(schema, scores)
        assert calls["n"] == 2 * len(schemas)


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
