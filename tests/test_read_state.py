"""The index generation is the whole read state of a search.

Phase 1 searches generation N and phase 2 decodes each candidate from
the payload its document carries in that same generation, so a page is
a function of (generation, query): a write the indexer has not yet
published changes nothing, a replica that has not pulled serves what
the primary served at its generation, and no search reads the
repository database.
"""

from __future__ import annotations

import urllib.error
import urllib.request

import pytest

from repro.core.config import SchemrConfig
from repro.core.engine import served_payload
from repro.corpus.domains import domain_by_name
from repro.corpus.generator import CorpusGenerator
from repro.index.documents import document_from_schema
from repro.index.segments import open_segment_index
from repro.replication import DirectorySource, ReplicaSyncer
from repro.repository.store import SchemaRepository
from repro.resilience.faults import FAULTS
from repro.service.server import SchemrServer
from repro.sharding import ShardedEngine

from tests.conftest import build_clinic_schema

KEYWORDS = ["patient", "name", "address"]


def page_of(results) -> list[tuple]:
    """What a client observes of a page, drill-in included."""
    return [(r.schema_id, r.name, f"{r.score:.6f}", r.match_count,
             tuple((m.query_label, m.element_path, f"{m.score:.6f}")
                   for m in r.element_matches))
            for r in results]


@pytest.fixture(autouse=True)
def clean_faults():
    FAULTS.reset()
    yield
    FAULTS.reset()


@pytest.fixture
def corpus(tmp_path):
    """120 generated schemas (seed 13) in a file-backed repository;
    yields (db path, the generator that made them)."""
    db = str(tmp_path / "repo.db")
    generator = CorpusGenerator(seed=13)
    with SchemaRepository(db) as repo:
        for generated in generator.stream(120, include_junk=True):
            repo.add_schema(generated.schema)
    return db, generator


def _replacement(generator, schema_id):
    schema = generator.generate_from_domain(
        domain_by_name("healthcare"), ("patient",)).schema
    schema.schema_id = schema_id
    return schema


class TestReplicaAtGenerationN:
    def test_lagging_replica_serves_the_primary_page_at_its_generation(
            self, tmp_path, corpus):
        """(a) The replica has not pulled the primary's refresh: it
        still serves generation N, so its page is the primary's page
        at N — not a mix of N's candidates and newer payloads."""
        db, generator = corpus
        config = dict(candidate_pool=40)
        with SchemaRepository(db) as primary_repo, \
                SchemaRepository(db) as replica_repo:
            primary = primary_repo.engine(config=SchemrConfig(
                segment_dir=str(tmp_path / "psegs"), **config))
            replica = SchemrServer(replica_repo, config=SchemrConfig(
                segment_dir=str(tmp_path / "rsegs"),
                replicate_from=str(tmp_path / "psegs"),
                replica_poll_seconds=3600, **config))
            try:
                at_n = page_of(primary.search(keywords=KEYWORDS))
                generation = replica.replica_syncer.generation
                # The replica has not searched yet: nothing it could
                # serve is cached from before the write.
                primary_repo.update_schema(
                    _replacement(generator, at_n[0][0]))
                primary_repo.indexer().refresh()
                assert page_of(primary.search(keywords=KEYWORDS)) != at_n
                assert replica.replica_syncer.generation == generation
                assert page_of(replica.engine.search(
                    keywords=KEYWORDS)) == at_n
            finally:
                replica.engine.close()
                primary.close()


class TestCommitBeforeRefresh:
    @pytest.mark.parametrize("segments", [False, True])
    @pytest.mark.parametrize("cache_size", [256, 0])
    def test_commit_without_refresh_changes_no_page(
            self, tmp_path, corpus, segments, cache_size):
        """(b) Writes committed but not yet refreshed — through this
        handle or another — leave every page as it was."""
        db, generator = corpus
        config = SchemrConfig(
            candidate_pool=40, query_cache_size=cache_size,
            segment_dir=str(tmp_path / "segs") if segments else None)
        with SchemaRepository(db) as repo, SchemaRepository(db) as other:
            engine = repo.engine(config=config)
            try:
                before = page_of(engine.search(keywords=KEYWORDS))
                second = page_of(engine.search(keywords=KEYWORDS,
                                               offset=3))
                top = before[0][0]
                repo.update_schema(_replacement(generator, top))
                other.delete_schema(before[1][0])
                repo.add_schema(build_clinic_schema("patient_name_address"))
                for _ in range(2):
                    assert page_of(engine.search(keywords=KEYWORDS)) \
                        == before
                assert page_of(engine.search(keywords=KEYWORDS,
                                             offset=3)) == second
                assert engine.schema(top).name == before[0][1]
                repo.indexer().refresh()
                after = page_of(engine.search(keywords=KEYWORDS))
                assert after != before
                assert before[1][0] not in {row[0] for row in after}
            finally:
                engine.close()


def _search(engine) -> list[tuple]:
    return page_of(engine.search(keywords=KEYWORDS))


def _injected(build) -> tuple[list[tuple], list[tuple]]:
    """The page of a fresh engine with every repository fetch failing,
    and the page of another fresh engine without the fault."""
    FAULTS.inject("store.get_schema", error=RuntimeError("store down"))
    try:
        engine = build()
        try:
            injected = _search(engine)
            assert engine.last_profile.degradation == "none"
        finally:
            engine.close()
    finally:
        FAULTS.disarm("store.get_schema")
    engine = build()
    try:
        return injected, _search(engine)
    finally:
        engine.close()


def _get(url: str) -> int:
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            response.read()
            return response.status
    except urllib.error.HTTPError as err:
        return err.code


class TestSearchesNeverReadTheRepository:
    """(c) ``store.get_schema`` failing on every call changes no page on
    any serving path, and ``/schema/<id>`` still answers."""

    @pytest.mark.parametrize("path", ["memory", "segments", "sharded"])
    def test_pages_survive_a_repository_outage(self, tmp_path, corpus,
                                               path):
        db, _ = corpus
        repo = SchemaRepository(db)
        segment_dir = str(tmp_path / "segs")
        try:
            if path == "sharded":
                def build():
                    return ShardedEngine(repo, config=SchemrConfig(
                        candidate_pool=40, segment_dir=segment_dir,
                        shards=2))
            else:
                def build():
                    return repo.engine(config=SchemrConfig(
                        candidate_pool=40,
                        segment_dir=segment_dir if path == "segments"
                        else None))
            injected, plain = _injected(build)
            assert injected == plain
        finally:
            repo.close()

    def test_replica_pages_survive_a_repository_outage(self, tmp_path,
                                                       corpus):
        db, _ = corpus
        with SchemaRepository(db) as repo:
            repo.engine(config=SchemrConfig(
                segment_dir=str(tmp_path / "psegs"))).close()

        def build():
            local = tmp_path / f"rsegs{build.count}"
            build.count += 1
            syncer = ReplicaSyncer(DirectorySource(tmp_path / "psegs"),
                                   local)
            syncer.sync_once()
            index = open_segment_index(local)
            syncer.attach_index(index)
            from repro.core.engine import SchemrEngine
            return SchemrEngine(index=index,
                                config=SchemrConfig(candidate_pool=40))
        build.count = 0
        injected, plain = _injected(build)
        assert injected == plain

    @pytest.mark.parametrize("replica", [False, True])
    def test_schema_endpoint_answers_from_the_served_generation(
            self, tmp_path, corpus, replica):
        db, _ = corpus
        with SchemaRepository(db) as repo:
            config = SchemrConfig(segment_dir=str(tmp_path / "psegs"))
            if replica:
                repo.engine(config=config).close()
                config = SchemrConfig(
                    segment_dir=str(tmp_path / "rsegs"),
                    replicate_from=str(tmp_path / "psegs"),
                    replica_poll_seconds=3600)
            server = SchemrServer(repo, config=config)
            FAULTS.inject("store.get_schema",
                          error=RuntimeError("store down"))
            with server.running() as base_url:
                assert _get(f"{base_url}/schema/1") == 200
                assert _get(f"{base_url}/schema/1/svg") == 200
                assert _get(f"{base_url}/schema/999999") == 404
                FAULTS.disarm("store.get_schema")
                if not replica:
                    # Committed, not refreshed: not in the served
                    # generation yet.
                    added = repo.add_schema(build_clinic_schema("late"))
                    assert _get(f"{base_url}/schema/{added}") == 404
                    repo.indexer().refresh()
                    assert _get(f"{base_url}/schema/{added}") == 200


class TestOneLookupPerCandidate:
    def test_search_counts_one_lookup_per_candidate(self, corpus):
        db, _ = corpus
        with SchemaRepository(db) as repo:
            engine = repo.engine(config=SchemrConfig(
                candidate_pool=40, query_cache_size=0))
            store = repo.profile_store()
            try:
                for _ in range(2):  # cold, then warm
                    before = store.hits + store.misses
                    engine.search(keywords=KEYWORDS)
                    fetched = engine.last_profile.phase_items[
                        "schema_matching"][0]
                    assert fetched == 40
                    assert store.hits + store.misses - before == fetched
                assert store.misses == 40
            finally:
                engine.close()


class TestOnePayloadProducer:
    def test_refresh_rebuild_and_by_id_reads_agree(self, corpus):
        """A refreshed document, a rebuilt one and a by-id read carry
        the same payload bytes, so they share a profile-cache entry."""
        db, generator = corpus
        with SchemaRepository(db) as repo:
            repo.update_schema(_replacement(generator, 7))
            indexer = repo.indexer()
            indexer.refresh()
            refreshed = {doc_id: bytes(served_payload(indexer.index, doc_id))
                         for doc_id in repo.list_schema_ids()}
            indexer.rebuild()
            for schema_id, payload in refreshed.items():
                assert bytes(served_payload(indexer.index, schema_id)) \
                    == payload
                assert repo.payload(schema_id) == payload
                assert document_from_schema(
                    repo.get_schema(schema_id)).payload == payload
