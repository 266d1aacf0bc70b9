"""Process-sharded serving: layout, pool, and golden-equivalence tests.

The load-bearing property is *byte-identity*: a ``ShardedEngine``
scatter-gathering over N worker processes must produce exactly the
ranking the single-process ``SchemrEngine`` produces — same pages at
every offset, same scores, same tie-breaks — across shard counts,
paging, fuzzy expansion, delta mutations, and even a worker killed
mid-serving (local repair keeps the bytes; only ``shards_used`` tells
the story).
"""

from __future__ import annotations

import os
import signal
import time
import urllib.request
import xml.etree.ElementTree as ET

import pytest

from repro.core.config import SchemrConfig
from repro.corpus.domains import domain_by_name
from repro.corpus.generator import CorpusGenerator
from repro.errors import IndexError_, QueryError, ServiceError
from repro.index.segments import SegmentedIndex
from repro.index.segments.sharded import (
    ShardedSegmentIndex,
    open_segment_index,
    shard_of,
)
from repro.repository.store import SchemaRepository
from repro.sharding import ShardedEngine, ShardTimeout

QUERIES = [
    ["patient", "name", "address"],
    ["order", "customer", "price"],
    ["temperature", "station"],
    ["loan", "interest", "rate", "account"],
    ["teacher", "course"],
]

CORPUS = 260


def make_config(segment_dir, shards=None, **overrides):
    values = dict(segment_dir=str(segment_dir), candidate_pool=40)
    if shards is not None:
        values["shards"] = shards
    values.update(overrides)
    return SchemrConfig(**values)


@pytest.fixture(scope="module")
def corpus_db(tmp_path_factory):
    root = tmp_path_factory.mktemp("sharding_corpus")
    db = str(root / "repo.db")
    repo = SchemaRepository(db)
    for generated in CorpusGenerator(seed=7).stream(CORPUS,
                                                    include_junk=True):
        repo.add_schema(generated.schema)
    repo.close()
    return db


@pytest.fixture(scope="module")
def golden(corpus_db, tmp_path_factory):
    """Single-process rankings over a flat segment layout."""
    flat_dir = tmp_path_factory.mktemp("flat_baseline")
    repo = SchemaRepository(corpus_db)
    engine = repo.engine(config=make_config(flat_dir / "segments"))
    pages = [engine.search(keywords=q, top_n=10) for q in QUERIES]
    offset_pages = [engine.search(keywords=q, top_n=7, offset=7)
                    for q in QUERIES]
    yield {"pages": pages, "offset_pages": offset_pages}
    engine.close()
    repo.close()


@pytest.fixture
def sharded_engine_factory(corpus_db, tmp_path):
    """Build ShardedEngines (fresh repository handle each — the
    repository indexer is a lazy singleton) and close them after."""
    opened = []

    def build(shards, subdir=None, **overrides):
        repo = SchemaRepository(corpus_db)
        segment_dir = tmp_path / (subdir or f"sharded_{shards}")
        engine = ShardedEngine(
            repo, config=make_config(segment_dir, shards=shards,
                                     **overrides))
        opened.append((engine, repo))
        return engine

    yield build
    for engine, repo in opened:
        engine.close()
        repo.close()


# -- segment layout -----------------------------------------------------------

class TestShardedLayout:
    def test_fresh_directory_defaults_to_flat(self, tmp_path):
        index = open_segment_index(tmp_path / "seg", create=True)
        assert isinstance(index, SegmentedIndex)

    def test_explicit_shards_creates_sharded(self, tmp_path):
        index = open_segment_index(tmp_path / "seg", shards=3, create=True)
        assert isinstance(index, ShardedSegmentIndex)
        assert index.shard_count == 3
        assert (tmp_path / "seg" / "SHARDS.json").exists()

    def test_one_shard_is_still_a_sharded_layout(self, tmp_path):
        index = open_segment_index(tmp_path / "seg", shards=1, create=True)
        assert isinstance(index, ShardedSegmentIndex)
        assert index.shard_count == 1

    def test_marker_wins_on_reopen(self, tmp_path):
        open_segment_index(tmp_path / "seg", shards=2, create=True)
        reopened = open_segment_index(tmp_path / "seg")
        assert isinstance(reopened, ShardedSegmentIndex)
        assert reopened.shard_count == 2

    def test_shard_count_is_fixed_for_life(self, tmp_path):
        open_segment_index(tmp_path / "seg", shards=2, create=True)
        with pytest.raises(IndexError_, match="2 shard"):
            open_segment_index(tmp_path / "seg", shards=4)

    def test_flat_directory_refuses_shards(self, tmp_path):
        open_segment_index(tmp_path / "seg", create=True)
        with pytest.raises(IndexError_, match="single-segment"):
            open_segment_index(tmp_path / "seg", shards=2)

    def test_doc_id_routing(self, tmp_path):
        index = open_segment_index(tmp_path / "seg", shards=3, create=True)
        for doc_id in range(12):
            expected = shard_of(doc_id, 3)
            assert index.shard_for(doc_id) is index.shard(expected)


# -- config validation --------------------------------------------------------

class TestConfigValidation:
    def test_shards_must_be_positive(self):
        with pytest.raises(QueryError, match="shards"):
            SchemrConfig(shards=0)

    def test_shards_require_segment_dir(self):
        with pytest.raises(QueryError, match="segment_dir"):
            SchemrConfig(shards=2)

    def test_shard_timeout_must_be_positive(self, tmp_path):
        with pytest.raises(QueryError, match="shard_timeout"):
            SchemrConfig(segment_dir=str(tmp_path), shards=2,
                         shard_timeout_seconds=0.0)

    def test_engine_rejects_memory_repository(self, tmp_path):
        repo = SchemaRepository()
        with pytest.raises(ServiceError, match="file-backed"):
            ShardedEngine(repo, config=make_config(tmp_path / "seg",
                                                   shards=2))
        repo.close()


# -- golden equivalence -------------------------------------------------------

class TestShardedEquivalence:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_rankings_byte_identical(self, shards, golden,
                                     sharded_engine_factory):
        engine = sharded_engine_factory(shards)
        pages = [engine.search(keywords=q, top_n=10) for q in QUERIES]
        offset_pages = [engine.search(keywords=q, top_n=7, offset=7)
                        for q in QUERIES]
        assert pages == golden["pages"]
        assert offset_pages == golden["offset_pages"]
        profile = engine.last_profile
        assert profile.shards_total == shards
        assert profile.shards_used == shards

    def test_repeat_query_hits_front_cache(self, golden,
                                           sharded_engine_factory):
        engine = sharded_engine_factory(2)
        first = engine.search(keywords=QUERIES[0])
        assert not engine.last_profile.cache_hit
        again = engine.search(keywords=QUERIES[0])
        assert again == first == golden["pages"][0]
        assert engine.last_profile.cache_hit

    def test_fuzzy_expansion_equivalence(self, corpus_db, tmp_path):
        repo_flat = SchemaRepository(corpus_db)
        flat = repo_flat.engine(config=make_config(
            tmp_path / "flat_fuzzy", use_fuzzy_expansion=True))
        repo_sharded = SchemaRepository(corpus_db)
        sharded = ShardedEngine(repo_sharded, config=make_config(
            tmp_path / "sharded_fuzzy", shards=2,
            use_fuzzy_expansion=True))
        try:
            for keywords in (["patiemt", "name"], ["ordr", "customer"]):
                assert sharded.search(keywords=keywords) == \
                    flat.search(keywords=keywords)
        finally:
            sharded.close()
            repo_sharded.close()
            flat.close()
            repo_flat.close()

    def test_delta_mutations_stay_equivalent(self, tmp_path):
        db = str(tmp_path / "mut.db")
        generator = CorpusGenerator(seed=13)
        writer = SchemaRepository(db)
        for generated in generator.stream(120, include_junk=True):
            writer.add_schema(generated.schema)

        repo_flat = SchemaRepository(db)
        flat = repo_flat.engine(config=make_config(tmp_path / "flat"))
        repo_sharded = SchemaRepository(db)
        sharded = ShardedEngine(
            repo_sharded, config=make_config(tmp_path / "sharded",
                                             shards=2))
        try:
            for generated in generator.stream(40):
                writer.add_schema(generated.schema)
            writer.delete_schema(writer.list_schema_ids()[3])
            repo_flat.indexer().refresh()
            repo_sharded.indexer().refresh()
            for keywords in QUERIES:
                assert sharded.search(keywords=keywords) == \
                    flat.search(keywords=keywords)
            # Replace the top hit in place: the worker that scores it
            # must drop the match profile it cached for the old schema.
            top = flat.search(keywords=QUERIES[0])[0].schema_id
            replacement = generator.generate_from_domain(
                domain_by_name("healthcare"), ("patient",)).schema
            replacement.schema_id = top
            writer.update_schema(replacement)
            repo_flat.indexer().refresh()
            repo_sharded.indexer().refresh()
            assert top in {r.schema_id
                           for r in flat.search(keywords=QUERIES[0])}
            for keywords in QUERIES:
                assert sharded.search(keywords=keywords) == \
                    flat.search(keywords=keywords)
        finally:
            sharded.close()
            repo_sharded.close()
            flat.close()
            repo_flat.close()
            writer.close()


# -- worker failure and recovery ----------------------------------------------

class TestWorkerFailure:
    def test_killed_worker_keeps_bytes_identical(self, golden,
                                                 sharded_engine_factory):
        engine = sharded_engine_factory(2, subdir="kill_2")
        victim = engine.pool.workers[0]
        os.kill(victim.pid, signal.SIGKILL)
        deadline = time.monotonic() + 5.0
        while victim.process_alive and time.monotonic() < deadline:
            time.sleep(0.01)
        first = engine.search(keywords=QUERIES[0], top_n=10)
        degraded_profile = engine.last_profile
        pages = [first] + [engine.search(keywords=q, top_n=10)
                           for q in QUERIES[1:]]
        assert pages == golden["pages"]
        assert degraded_profile.shards_total == 2
        assert degraded_profile.shards_used < 2

    def test_respawned_worker_serves_again(self, golden,
                                           sharded_engine_factory):
        engine = sharded_engine_factory(2, subdir="respawn_2")
        victim = engine.pool.workers[1]
        os.kill(victim.pid, signal.SIGKILL)
        deadline = time.monotonic() + 5.0
        while victim.process_alive and time.monotonic() < deadline:
            time.sleep(0.01)
        engine.search(keywords=QUERIES[0])  # trips the failure path
        assert engine.pool.usable(1, ready_timeout=5.0)
        assert victim.restarts >= 1
        pages = [engine.search(keywords=q, top_n=10) for q in QUERIES]
        assert pages == golden["pages"]
        assert engine.last_profile.shards_used == 2

    def test_collect_timeout_raises(self, sharded_engine_factory):
        engine = sharded_engine_factory(2, subdir="timeout_2")
        handle = engine.pool.workers[0]
        with pytest.raises(ShardTimeout):
            handle.collect("phase1", 999_999, timeout=0.05)

    def test_close_leaves_no_orphans(self, corpus_db, tmp_path):
        repo = SchemaRepository(corpus_db)
        engine = ShardedEngine(
            repo, config=make_config(tmp_path / "orphans", shards=2))
        pids = [handle.pid for handle in engine.pool.workers]
        engine.close()
        repo.close()
        deadline = time.monotonic() + 3.0
        while time.monotonic() < deadline:
            if not any(_alive(pid) for pid in pids):
                break
            time.sleep(0.05)
        assert not any(_alive(pid) for pid in pids)


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


# -- HTTP service integration -------------------------------------------------

class TestShardedServer:
    @pytest.fixture
    def sharded_server(self, corpus_db, tmp_path):
        from repro.service.server import SchemrServer
        repo = SchemaRepository(corpus_db)
        config = make_config(tmp_path / "server_segments", shards=2,
                             telemetry_enabled=True)
        server = SchemrServer(repo, config=config)
        server.start()
        yield server
        server.stop()
        repo.close()

    def _get(self, base_url: str, path: str) -> tuple[int, str, dict]:
        try:
            with urllib.request.urlopen(base_url + path,
                                        timeout=10) as response:
                return (response.status, response.read().decode(),
                        dict(response.headers))
        except urllib.error.HTTPError as error:
            return error.code, error.read().decode(), dict(error.headers)

    def test_readyz_reports_per_shard_health(self, sharded_server):
        status, body = 0, ""
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            status, body, _ = self._get(sharded_server.base_url, "/readyz")
            if status == 200:
                break
            time.sleep(0.1)
        assert status == 200, body
        root = ET.fromstring(body)
        shards = root.findall("shard")
        assert [s.get("id") for s in shards] == ["0", "1"]
        for shard in shards:
            assert shard.get("state") == "ready"
            assert int(shard.get("pid")) > 0
            assert shard.get("breaker") == "closed"

    def test_search_matches_single_process(self, sharded_server, golden):
        status, body, _ = self._get(
            sharded_server.base_url,
            "/search?keywords=patient+name+address&top=10")
        assert status == 200, body
        root = ET.fromstring(body)
        served = [(int(node.get("schemaId")), node.get("score"))
                  for node in root.findall("result")]
        expected = [(result.schema_id, f"{result.score:.6f}")
                    for result in golden["pages"][0]]
        assert served == expected

    def test_metrics_export_shard_families(self, sharded_server):
        self._get(sharded_server.base_url,
                  "/search?keywords=patient+name")
        status, body, _ = self._get(sharded_server.base_url, "/metrics")
        assert status == 200
        for family in ("schemr_shard_up", "schemr_shard_documents",
                       "schemr_shard_requests_total",
                       "schemr_shard_wait_seconds",
                       "schemr_shard_restarts_total"):
            assert family in body, f"missing {family}"

    def test_stop_tears_down_workers(self, corpus_db, tmp_path):
        from repro.service.server import SchemrServer
        repo = SchemaRepository(corpus_db)
        config = make_config(tmp_path / "stop_segments", shards=2)
        server = SchemrServer(repo, config=config)
        server.start()
        pids = [handle.pid for handle in server.engine.pool.workers]
        server.stop()
        repo.close()
        deadline = time.monotonic() + 3.0
        while time.monotonic() < deadline:
            if not any(_alive(pid) for pid in pids):
                break
            time.sleep(0.05)
        assert not any(_alive(pid) for pid in pids)


# -- CLI ----------------------------------------------------------------------

class TestShardedCli:
    def test_index_builds_sharded_layout(self, corpus_db, tmp_path,
                                         capsys):
        from repro.cli import main
        segment_dir = tmp_path / "cli_segments"
        assert main(["index", corpus_db,
                     "--segment-dir", str(segment_dir),
                     "--shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "across 2 shard(s)" in out
        assert (segment_dir / "SHARDS.json").exists()
        reopened = open_segment_index(segment_dir)
        assert isinstance(reopened, ShardedSegmentIndex)
        assert reopened.shard_count == 2
        assert reopened.document_count > 0

    def test_index_shards_require_segment_dir(self, corpus_db, capsys):
        from repro.cli import main
        assert main(["index", corpus_db, "--shards", "2"]) == 1
        assert "requires --segment-dir" in capsys.readouterr().err

    def test_serve_flag_fields_cover_sharding(self):
        from repro.cli import SERVE_FLAG_FIELDS
        assert SERVE_FLAG_FIELDS["--shards"] == "shards"
        assert SERVE_FLAG_FIELDS["--shard-timeout"] == \
            "shard_timeout_seconds"
