"""Telemetry wired through the engine, caches, and indexer.

These tests drive the real pipeline (repository -> indexer -> engine)
with telemetry enabled and assert what lands in the registry, the
profile log, and the history sink.
"""

import threading

import pytest

from repro.core.config import SchemrConfig
from repro.core.pipeline import PHASE_CANDIDATES, PHASE_MATCHING
from repro.errors import QueryError
from repro.matching.profile import ProfileStore
from repro.repository.store import SchemaRepository
from repro.telemetry import (
    EMPTY_NO_INDEX_HITS,
    EMPTY_OFFSET_BEYOND,
    SearchHistorySink,
    Telemetry,
)
from repro.telemetry.metrics import Histogram

from tests.conftest import build_clinic_schema, build_hr_schema


@pytest.fixture
def telemetry_engine(small_repository):
    engine = small_repository.engine(
        config=SchemrConfig(telemetry_enabled=True))
    yield engine
    engine.close()


class TestEngineInstrumentation:
    def test_search_populates_metrics(self, telemetry_engine):
        telemetry_engine.search(keywords="patient height")
        telemetry_engine.search(keywords="salary")
        snap = telemetry_engine.telemetry.metrics.snapshot()
        assert snap.value("schemr_searches_total") == 2
        assert snap.find("schemr_search_seconds").count == 2
        assert snap.find("schemr_phase_seconds",
                         phase=PHASE_MATCHING).count == 2
        assert snap.find("schemr_phase1_candidates").count == 2
        assert snap.value("schemr_results_total") > 0
        assert snap.value("schemr_index_documents") == 3

    def test_profile_records_pipeline_shape(self, telemetry_engine):
        results = telemetry_engine.search(keywords="patient height",
                                          top_n=2)
        profile = telemetry_engine.last_profile
        assert profile is not None
        assert "patient" in profile.query_terms
        assert profile.candidate_count >= len(results)
        assert profile.result_count == len(results)
        assert profile.top_n == 2
        assert profile.strategy in ("naive", "packed", "pruned")
        assert profile.total_seconds > 0
        assert profile.phase_seconds[PHASE_CANDIDATES] > 0
        assert profile.phase_seconds[PHASE_MATCHING] > 0
        assert profile.empty_reason is None
        assert telemetry_engine.telemetry.profiles.total_count == 1

    def test_repeat_query_is_a_cache_hit(self, telemetry_engine):
        telemetry_engine.search(keywords="patient height")
        assert telemetry_engine.last_profile.cache_hit is False
        telemetry_engine.search(keywords="patient height")
        assert telemetry_engine.last_profile.cache_hit is True
        snap = telemetry_engine.telemetry.metrics.snapshot()
        assert snap.value("schemr_query_cache_hits_total") == 1
        assert snap.value("schemr_phase1_queries_total", cache="hit") == 1
        assert snap.value("schemr_phase1_queries_total", cache="miss") == 1

    def test_empty_reason_no_index_hits(self, telemetry_engine):
        assert telemetry_engine.search(keywords="qqqzzzxxx") == []
        assert telemetry_engine.last_profile.empty_reason \
            == EMPTY_NO_INDEX_HITS
        snap = telemetry_engine.telemetry.metrics.snapshot()
        assert snap.value("schemr_empty_results_total",
                          reason=EMPTY_NO_INDEX_HITS) == 1

    def test_empty_reason_offset_beyond_results(self, telemetry_engine):
        assert telemetry_engine.search(keywords="patient height",
                                       offset=500) == []
        assert telemetry_engine.last_profile.empty_reason \
            == EMPTY_OFFSET_BEYOND

    def test_slow_query_threshold_from_config(self, small_repository):
        # A threshold below any realistic latency: every search is slow.
        engine = small_repository.engine(config=SchemrConfig(
            telemetry_enabled=True, slow_query_seconds=1e-9))
        try:
            engine.search(keywords="patient")
            telemetry = engine.telemetry
            assert telemetry.profiles.slow_count == 1
            assert telemetry.metrics.snapshot().value(
                "schemr_slow_queries_total") == 1
        finally:
            engine.close()

    def test_history_sink_wired_through_config(self, small_repository,
                                               tmp_path):
        path = tmp_path / "searches.jsonl"
        engine = small_repository.engine(config=SchemrConfig(
            telemetry_enabled=True, history_path=str(path)))
        try:
            results = engine.search(keywords="patient height")
        finally:
            engine.close()  # owns the sink: close flushes it
        records = SearchHistorySink.load(path)
        assert len(records) == 1
        assert records[0].results[0]["schema_id"] == results[0].schema_id
        assert records[0].total_seconds > 0

    def test_concurrent_searches_count_exactly(self, telemetry_engine):
        barrier = threading.Barrier(4)

        def work():
            barrier.wait()
            for _ in range(10):
                telemetry_engine.search(keywords="patient height gender")

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        telemetry = telemetry_engine.telemetry
        assert telemetry.metrics.snapshot().value(
            "schemr_searches_total") == 40
        assert telemetry.profiles.total_count == 40


class TestDisabledTelemetry:
    def test_disabled_engine_records_nothing_but_still_profiles(
            self, small_repository):
        engine = small_repository.engine()  # telemetry off by default
        try:
            engine.search(keywords="qqqzzzxxx")
            telemetry = engine.telemetry
            assert telemetry.enabled is False
            assert telemetry.metrics.snapshot().samples == []
            assert telemetry.profiles.total_count == 0
            # The empty-reason diagnosis works without telemetry.
            assert engine.last_profile.empty_reason == EMPTY_NO_INDEX_HITS
        finally:
            engine.close()

    def test_disabled_facade_has_no_history_sink(self, tmp_path):
        telemetry = Telemetry(enabled=False,
                              history_path=str(tmp_path / "h.jsonl"))
        assert telemetry.history is None
        telemetry.close()  # no-op


class TestCacheCounters:
    def test_profile_store_hit_miss_eviction_counters(self):
        repo = SchemaRepository.in_memory()
        store = ProfileStore(repo, capacity=2)
        ids = [repo.add_schema(build_clinic_schema(f"clinic_{i}"))
               for i in range(3)]
        store.get_profile(ids[0])
        assert (store.hits, store.misses) == (0, 1)
        store.get_profile(ids[0])
        assert (store.hits, store.misses) == (1, 1)
        assert store.hit_rate == pytest.approx(0.5)
        store.get_profile(ids[1])
        store.get_profile(ids[2])  # capacity 2: evicts ids[0]
        assert store.evictions == 1
        repo.close()

    def test_segment_gauges_exposed(self, tmp_path):
        """A segment-backed engine registers the schemr_segment_*
        gauges; an in-memory one does not."""
        repo = SchemaRepository.in_memory()
        repo.add_schema(build_clinic_schema())
        engine = repo.engine(config=SchemrConfig(
            telemetry_enabled=True, segment_dir=str(tmp_path / "seg")))
        try:
            engine.search(keywords="patient")
            snap = engine.telemetry.metrics.snapshot()
            assert snap.value("schemr_segment_count") >= 1
            assert snap.value("schemr_segment_mmap_bytes") > 0
            assert snap.value("schemr_segment_delta_docs") == 0
            assert snap.value("schemr_segment_deleted_docs") == 0
        finally:
            engine.close()
            repo.close()

    def test_segment_merge_metrics(self, tmp_path):
        repo = SchemaRepository.in_memory()
        repo.add_schema(build_clinic_schema())
        engine = repo.engine(config=SchemrConfig(
            telemetry_enabled=True, segment_dir=str(tmp_path / "seg")))
        try:
            repo.add_schema(build_hr_schema())
            repo.reindex()  # flush happens in the same refresh loop
            snap = engine.telemetry.metrics.snapshot()
            # Two tiny segments are below every merge threshold, so
            # merge counters exist but stay at zero.
            assert snap.value("schemr_segment_count") == 2
            assert snap.value("schemr_segment_merges_total") == 0
        finally:
            engine.close()
            repo.close()

    def test_indexer_refresh_metrics(self):
        repo = SchemaRepository.in_memory()
        repo.add_schema(build_clinic_schema())
        engine = repo.engine(config=SchemrConfig(telemetry_enabled=True))
        try:
            repo.add_schema(build_hr_schema())
            repo.reindex()  # same indexer instance: telemetry still wired
            snap = engine.telemetry.metrics.snapshot()
            assert snap.value("schemr_indexer_refreshes_total") >= 2
            assert snap.value("schemr_indexer_ops_applied_total") >= 2
            assert snap.find("schemr_indexer_refresh_seconds").count >= 2
            assert snap.value("schemr_indexer_generation_bumps_total") >= 2
        finally:
            engine.close()
            repo.close()

    def test_publish_seconds_never_exceed_refresh_seconds(self, tmp_path,
                                                          monkeypatch):
        """The locked publish is a part of its refresh, observation by
        observation — what lets an operator rule the writer out when a
        read is slow."""
        observed: list[tuple[object, float]] = []
        real_observe = Histogram.observe

        def spy(histogram, value):
            observed.append((histogram, value))
            real_observe(histogram, value)

        monkeypatch.setattr(Histogram, "observe", spy)
        repo = SchemaRepository.in_memory()
        repo.add_schema(build_clinic_schema())
        engine = repo.engine(config=SchemrConfig(
            telemetry_enabled=True, segment_dir=str(tmp_path / "seg")))
        try:
            for i in range(4):
                schema_id = repo.add_schema(build_hr_schema(f"hr_{i}"))
                if i % 2:
                    repo.delete_schema(schema_id)
                repo.reindex()
            metrics = engine.telemetry.metrics
            refresh = metrics.histogram("schemr_indexer_refresh_seconds")
            publish = metrics.histogram("schemr_indexer_publish_seconds")
            refreshes = [v for h, v in observed if h is refresh]
            publishes = [v for h, v in observed if h is publish]
            assert len(publishes) == len(refreshes) >= 4
            assert all(p <= r for p, r in zip(publishes, refreshes))
        finally:
            engine.close()
            repo.close()


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"slow_query_seconds": 0.0},
        {"slow_query_seconds": -1.0},
        {"history_max_bytes": 0},
        {"history_max_bytes": -1},
    ])
    def test_bad_telemetry_knobs_rejected(self, kwargs):
        with pytest.raises(QueryError):
            SchemrConfig(**kwargs)
