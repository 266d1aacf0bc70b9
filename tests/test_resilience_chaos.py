"""Chaos suite: fault injection against the engine, store, and server.

Determinism rules: clocks are injected and advanced by hand (a "slow"
phase is a hook that moves the fake clock, not a sleep), fault plans are
bounded, and every test disarms the global injector in teardown.
"""

from __future__ import annotations

import sqlite3
import threading
import urllib.error
import urllib.request
import xml.etree.ElementTree as ET

import pytest

from repro.core.config import SchemrConfig
from repro.core.engine import SchemrEngine
from repro.errors import RepositoryError, ServiceError
from repro.repository.store import SchemaRepository
from repro.resilience import (STATE_OPEN, FaultInjector, RetryPolicy)
from repro.resilience.faults import FAULTS
from repro.service.server import SchemrServer
from repro.sharding import ShardedEngine
from tests.conftest import (build_clinic_schema, build_conservation_schema,
                            build_hr_schema)


class FakeClock:
    def __init__(self, start: float = 100.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture(autouse=True)
def clean_faults():
    FAULTS.reset()
    yield
    FAULTS.reset()


def make_repo() -> SchemaRepository:
    repo = SchemaRepository.in_memory()
    repo.add_schema(build_clinic_schema())
    repo.add_schema(build_hr_schema())
    repo.add_schema(build_conservation_schema())
    return repo


def make_engine(repo: SchemaRepository, clock: FakeClock,
                **config_kwargs) -> SchemrEngine:
    config = SchemrConfig(**config_kwargs)
    indexer = repo.indexer()
    indexer.refresh()
    return SchemrEngine(index=indexer.index, source=repo.profile_store(),
                        config=config, clock=clock)


def open_engine(shards: int, tmp_path, clock: FakeClock,
                **config_kwargs) -> tuple[SchemaRepository, SchemrEngine]:
    """The same three schemas behind either executor."""
    if shards == 1:
        repo = make_repo()
        return repo, make_engine(repo, clock, **config_kwargs)
    repo = SchemaRepository(str(tmp_path / "repo.db"))
    repo.add_schema(build_clinic_schema())
    repo.add_schema(build_hr_schema())
    repo.add_schema(build_conservation_schema())
    config = SchemrConfig(segment_dir=str(tmp_path / "segments"),
                          shards=shards, **config_kwargs)
    return repo, ShardedEngine(repo, config=config, clock=clock)


KEYWORDS = "patient height gender diagnosis"
# Fake seconds; generous because shard workers spend *real* time
# against whatever share of it the front hands them.
BUDGET = 10.0


# -- engine degradation under budget pressure --------------------------------

class TestEngineDegradation:
    def test_no_budget_means_no_degradation(self):
        repo = make_repo()
        engine = make_engine(repo, FakeClock())
        results = engine.search(keywords=KEYWORDS)
        assert results
        profile = engine.last_profile
        assert profile.degradation == "none"
        assert profile.degradation_level == 0
        assert profile.budget_seconds is None
        repo.close()

    @pytest.mark.parametrize("shards", [
        pytest.param(1, id="in_process"),
        pytest.param(2, id="shards2"),
    ])
    @pytest.mark.parametrize("burn,expected", [
        (0.1, "none"),           # 90% budget left after phase 1
        (0.6, "reduced_pool"),   # 40% left
        (0.8, "name_only"),      # 20% left
        (0.95, "phase1_only"),   # 5% left
    ])
    def test_ladder_levels_from_slow_phase1(self, burn, expected, shards,
                                            tmp_path):
        clock = FakeClock()
        repo, engine = open_engine(shards, tmp_path, clock,
                                   search_budget_seconds=BUDGET)
        FAULTS.inject("engine.phase1",
                      hook=lambda: clock.advance(burn * BUDGET), times=1)
        try:
            results = engine.search(keywords=KEYWORDS)
            profile = engine.last_profile
            assert profile.candidate_count > 0
            assert results, "phase 1 had hits: the page is never empty"
            assert profile.degradation == expected
            assert profile.budget_seconds == BUDGET
            assert profile.shards_total == (shards if shards > 1 else 0)
            assert profile.shards_used == profile.shards_total
            # the paper's query still finds the clinic schema first
            assert results[0].name == "clinic_emr"
        finally:
            engine.close()
            repo.close()

    def test_deadline_expiry_mid_match_loop_falls_back_to_phase1(self):
        clock = FakeClock()
        repo = make_repo()
        engine = make_engine(repo, clock, search_budget_seconds=1.0)
        # Phase 1 is cheap; the first candidate match burns the budget,
        # so the per-candidate deadline check trips inside the loop
        # ("name" pulls all three fixture schemas into the pool).
        FAULTS.inject("engine.match_one",
                      hook=lambda: clock.advance(2.0), times=1)
        results = engine.search(keywords="name")
        assert results
        profile = engine.last_profile
        assert profile.degradation == "phase1_only"
        assert profile.deadline_expired is True
        # phase-1 fallback carries index-only data
        assert all(r.entity_count == 0 for r in results)
        repo.close()

    @pytest.mark.parametrize("burn", [
        pytest.param(0.1, id="none"),
        pytest.param(0.6, id="reduced_pool"),
        pytest.param(0.8, id="name_only"),
    ])
    def test_budget_dying_mid_match_loop_is_never_empty(self, burn):
        """Whatever rung phase 2 starts on, a budget that runs out
        between candidates falls back to a non-empty phase-1 page, at
        most one candidate's cost past the budget."""
        clock = FakeClock()
        repo = make_repo()
        engine = make_engine(repo, clock, search_budget_seconds=BUDGET)
        # Two candidates fit in what phase 1 leaves; the third does not
        # ("name" pulls all three fixture schemas into the pool).
        per_candidate = 0.6 * (1.0 - burn) * BUDGET
        matched: list[float] = []

        def match_one() -> None:
            matched.append(clock.now)
            clock.advance(per_candidate)

        FAULTS.inject("engine.phase1",
                      hook=lambda: clock.advance(burn * BUDGET), times=1)
        FAULTS.inject("engine.match_one", hook=match_one)
        started = clock.now
        try:
            results = engine.search(keywords="name")
            profile = engine.last_profile
            assert profile.candidate_count == 3
            assert results, "phase 1 had hits: the page is never empty"
            assert profile.degradation == "phase1_only"
            assert profile.deadline_expired is True
            assert len(matched) == 2
            assert clock.now - started <= BUDGET + per_candidate
        finally:
            engine.close()
            repo.close()

    def test_degraded_metrics_are_counted(self):
        clock = FakeClock()
        repo = make_repo()
        config = dict(search_budget_seconds=1.0, telemetry_enabled=True)
        engine = make_engine(repo, clock, **config)
        FAULTS.inject("engine.phase1",
                      hook=lambda: clock.advance(0.95), times=1)
        engine.search(keywords=KEYWORDS)
        text = engine.telemetry.metrics.to_prometheus_text()
        assert 'schemr_degraded_searches_total{level="phase1_only"} 1' \
            in text
        repo.close()


class TestConcurrentProfiles:
    def test_phase1_stats_belong_to_the_searching_thread(self):
        """Two threads pass phase 1 before either finishes: the cached
        query's profile says cache hit, the uncached one's says miss —
        not whichever searched the index last."""
        repo = make_repo()
        engine = make_engine(repo, FakeClock())
        engine.search(keywords=KEYWORDS)  # warm the query cache
        barrier = threading.Barrier(2, timeout=10)
        FAULTS.inject("engine.match_one", hook=barrier.wait, times=2)
        profiles = {}

        def run(name, keywords):
            engine.search(keywords=keywords)
            profiles[name] = engine.thread_profile

        threads = [
            threading.Thread(target=run, args=("cached", KEYWORDS)),
            threading.Thread(target=run, args=("uncached", "salary name")),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert profiles["cached"].cache_hit is True
        assert profiles["cached"].docs_scored == 0
        assert profiles["uncached"].cache_hit is False
        assert profiles["uncached"].docs_scored > 0
        repo.close()


# -- matcher and source breakers ---------------------------------------------

class TestBreakerIntegration:
    def test_failing_matcher_is_cut_out_not_fatal(self):
        repo = make_repo()
        engine = make_engine(repo, FakeClock(),
                             breaker_failure_threshold=2)
        FAULTS.inject("matcher.context", error=RuntimeError("chaos"))
        results = engine.search(keywords=KEYWORDS)
        assert results, "name matcher alone must still answer"
        assert engine.last_profile.degradation == "none"
        repo.close()

    def test_matcher_breaker_opens_after_threshold(self):
        clock = FakeClock()
        repo = make_repo()
        engine = make_engine(repo, clock, breaker_failure_threshold=2)
        FAULTS.inject("matcher.context", error=RuntimeError("chaos"))
        engine.search(keywords="name")  # 3 candidates -> 3 failures
        breaker = engine.breakers["matcher.context"]
        assert breaker.state == STATE_OPEN
        # open breaker: the matcher is skipped without being called
        hits_before = FAULTS.hits("matcher.context")
        engine.search(keywords="name")
        assert FAULTS.hits("matcher.context") == hits_before
        repo.close()

    def test_matcher_breaker_recovers_through_half_open_probe(self):
        clock = FakeClock()
        repo = make_repo()
        engine = make_engine(repo, clock, breaker_failure_threshold=2,
                             breaker_reset_seconds=30.0)
        FAULTS.inject("matcher.context", error=RuntimeError("chaos"),
                      times=2)
        engine.search(keywords="name")  # 2 injected failures trip it
        breaker = engine.breakers["matcher.context"]
        assert breaker.state == STATE_OPEN
        clock.advance(31.0)
        engine.search(keywords="name")  # probe succeeds (plan spent)
        assert breaker.state == "closed"
        repo.close()

    def test_source_outage_degrades_to_phase1_not_empty(self):
        repo = make_repo()
        engine = make_engine(repo, FakeClock(),
                             breaker_failure_threshold=2)
        # Nothing is cached yet, so every candidate's lookup decodes;
        # fail them all: the response must be the phase-1 ranking,
        # never an empty page masquerading as "no match".
        FAULTS.inject("profile_store.lookup",
                      error=RuntimeError("store down"))
        results = engine.search(keywords=KEYWORDS)
        assert results
        assert engine.last_profile.degradation == "phase1_only"
        assert results[0].name == "clinic_emr"
        repo.close()


# -- repository fault handling -----------------------------------------------

class TestStoreResilience:
    def test_transient_lock_is_retried(self):
        repo = SchemaRepository.in_memory()
        FAULTS.inject("store.add_schema",
                      error=sqlite3.OperationalError("database is locked"),
                      times=2)
        schema_id = repo.add_schema(build_clinic_schema())
        assert schema_id == 1
        assert repo.retry_count == 2
        assert repo.schema_count == 1
        repo.close()

    def test_permanent_error_is_not_retried(self):
        repo = SchemaRepository.in_memory()
        FAULTS.inject("store.get_schema",
                      error=sqlite3.OperationalError("disk I/O error"),
                      times=1)
        repo.add_schema(build_clinic_schema())
        with pytest.raises(sqlite3.OperationalError):
            repo.get_schema(1)
        assert repo.retry_count == 0
        repo.close()

    def test_wal_and_busy_timeout_pragmas(self, tmp_path):
        repo = SchemaRepository(tmp_path / "r.db",
                                busy_timeout_seconds=2.5)
        mode = repo.connection.execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"
        timeout = repo.connection.execute(
            "PRAGMA busy_timeout").fetchone()[0]
        assert timeout == 2500
        repo.close()

    def test_in_memory_skips_wal(self):
        repo = SchemaRepository.in_memory()
        mode = repo.connection.execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "memory"
        repo.close()

    def test_corrupt_row_mid_iteration(self):
        repo = make_repo()
        repo.connection.execute(
            "UPDATE schemas SET payload = '{not json' WHERE schema_id = 2")
        repo.connection.commit()
        with pytest.raises(RepositoryError, match="schema 2"):
            list(repo.iter_schemas())
        survivors = list(repo.iter_schemas(skip_corrupt=True))
        assert sorted(s.name for s in survivors) == [
            "clinic_emr", "conservation_monitoring"]
        repo.close()

    def test_rebuild_survives_corrupt_row(self):
        repo = make_repo()
        indexer = repo.indexer()
        indexer.refresh()
        repo.connection.execute(
            "UPDATE schemas SET payload = 'garbage' WHERE schema_id = 3")
        repo.connection.commit()
        assert indexer.rebuild() == 2
        assert indexer.index.document_count == 2
        repo.close()

    def test_failed_refresh_keeps_cursor_and_recovers(self):
        repo = make_repo()
        indexer = repo.indexer()
        FAULTS.inject("indexer.refresh", error=RuntimeError("chaos"),
                      times=1)
        total = indexer.run_scheduled(interval_seconds=0.001,
                                      max_refreshes=2)
        # first refresh died before applying; the cursor did not move,
        # so the second applied the full batch
        assert total == 3
        assert indexer.consecutive_failures == 0
        assert indexer.last_change_id == 3
        repo.close()


# -- cache/profile interactions under mutation -------------------------------

class TestCacheUnderMutation:
    def test_query_cache_ignored_after_generation_bump(self):
        repo = make_repo()
        engine = make_engine(repo, FakeClock(), query_cache_size=16)
        cache = engine.searcher.query_cache
        engine.search(keywords="employee salary")
        assert len(cache) == 1

        def mutate() -> None:
            schema = build_hr_schema("hr_shadow_payroll")
            repo.add_schema(schema)
            repo.indexer().refresh()

        # The mutation lands right before phase 1 runs, after the search
        # pinned its index view: the cached entry belongs to that view's
        # generation, so serving it is right, and the new schema waits
        # for the next search.
        FAULTS.inject("engine.phase1", hook=mutate, times=1)
        hits_before = cache.hits
        results = engine.search(keywords="employee salary")
        assert cache.hits == hits_before + 1
        assert "hr_shadow_payroll" not in {r.name for r in results}
        # The next search pins the bumped generation: the stale entry is
        # ignored.
        results = engine.search(keywords="employee salary")
        assert cache.hits == hits_before + 1
        assert {r.name for r in results} >= {"hr_payroll",
                                             "hr_shadow_payroll"}
        # same query again (no mutation): now it is a clean cache hit
        engine.search(keywords="employee salary")
        assert cache.hits == hits_before + 2
        repo.close()

    def test_profile_invalidation_racing_refresh(self):
        """Nothing invalidates any more: a search decoding the old
        payload while the refresh runs caches it, and the first search
        after the refresh is still served the new version."""
        repo = make_repo()
        engine = make_engine(repo, FakeClock())
        indexer = repo.indexer()
        updated = build_clinic_schema("clinic_emr_v2")
        updated.schema_id = 1
        repo.update_schema(updated)

        # Mid-refresh (site fires at batch start), a competing search
        # fills the profile of the schema being refreshed.
        FAULTS.inject("indexer.refresh",
                      hook=lambda: engine.schema(1), times=1)
        indexer.refresh()
        assert engine.schema(1).name == "clinic_emr_v2"
        assert engine.search(keywords=KEYWORDS)[0].name == "clinic_emr_v2"
        repo.close()


# -- server chaos -------------------------------------------------------------

def _get(url: str) -> tuple[int, dict, str]:
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return (response.status, dict(response.headers),
                    response.read().decode())
    except urllib.error.HTTPError as err:
        return err.code, dict(err.headers), err.read().decode()


class TestServerChaos:
    @pytest.fixture
    def server(self):
        repo = make_repo()
        server = SchemrServer(repo, config=SchemrConfig(
            telemetry_enabled=True, max_concurrent_searches=1,
            admission_queue_size=0, admission_timeout_seconds=0.05,
            request_timeout_seconds=1.0))
        server.start()
        yield server
        try:
            server.stop()
        finally:
            repo.close()

    def test_healthz_and_readyz_ok(self, server):
        status, _, _ = _get(f"{server.base_url}/healthz")
        assert status == 200
        status, _, body = _get(f"{server.base_url}/readyz")
        assert status == 200
        assert "<ready/>" in body

    def test_readyz_503_when_breaker_open(self, server):
        breaker = server.engine.store_breaker
        for _ in range(5):
            breaker.record_failure()
        status, headers, body = _get(f"{server.base_url}/readyz")
        assert status == 503
        assert "schema_source" in body
        assert int(headers["Retry-After"]) >= 1
        breaker.reset()
        status, _, _ = _get(f"{server.base_url}/readyz")
        assert status == 200

    def test_overload_sheds_with_429_and_retry_after(self, server):
        gate = threading.Event()
        entered = threading.Event()

        def block() -> None:
            entered.set()
            gate.wait(timeout=10)

        FAULTS.inject("engine.phase1", hook=block, times=1)
        first: dict = {}

        def slow_search() -> None:
            first["response"] = _get(
                f"{server.base_url}/search?keywords=patient")

        thread = threading.Thread(target=slow_search)
        thread.start()
        try:
            assert entered.wait(timeout=10), "first search never started"
            status, headers, body = _get(
                f"{server.base_url}/search?keywords=patient")
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            assert 'status="429"' in body
        finally:
            gate.set()
            thread.join(timeout=10)
        assert first["response"][0] == 200

    def test_search_response_carries_degradation(self, server):
        FAULTS.inject("matcher.name", error=RuntimeError("chaos"))
        FAULTS.inject("matcher.context", error=RuntimeError("chaos"))
        status, _, body = _get(
            f"{server.base_url}/search?keywords=patient+height")
        assert status == 200
        root = ET.fromstring(body)
        assert root.get("degradation") == "phase1_only"
        assert int(root.get("count")) > 0

    def test_injected_faults_never_yield_500(self, server):
        FAULTS.inject("profile_store.lookup",
                      error=RuntimeError("store down"))
        server.engine.telemetry  # touch to keep fixture shape obvious
        for url in ("/search?keywords=patient+height",
                    "/readyz", "/healthz", "/metrics"):
            status, _, _ = _get(f"{server.base_url}{url}")
            assert status != 500, url

    def test_stalled_post_body_gets_408(self, server):
        import socket
        host, port = server.address
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"POST /search?keywords=patient HTTP/1.1\r\n"
                         b"Host: test\r\nContent-Length: 50\r\n\r\n")
            # ... and never send the 50 promised bytes
            response = sock.recv(4096).decode()
        assert " 408 " in response.splitlines()[0]

    def test_stop_raises_when_thread_refuses_to_exit(self):
        repo = make_repo()
        server = SchemrServer(repo, config=SchemrConfig(
            telemetry_enabled=True))
        gate = threading.Event()
        stuck = threading.Thread(target=gate.wait, daemon=True)
        stuck.start()
        server._thread = stuck
        server._httpd.shutdown = lambda: None  # type: ignore[method-assign]
        try:
            with pytest.raises(ServiceError, match="did not exit"):
                server.stop(join_timeout_seconds=0.05)
            text = server.telemetry.metrics.to_prometheus_text()
            assert "schemr_server_stop_hangs_total 1" in text
        finally:
            gate.set()
            stuck.join(timeout=5)
            server._thread = None
            server._httpd.server_close()
            server.engine.close()
            repo.close()


# -- injector hygiene ---------------------------------------------------------

class TestInjectorIsolation:
    def test_module_global_is_a_fault_injector(self):
        assert isinstance(FAULTS, FaultInjector)
        assert FAULTS.armed_sites == ()

    def test_repo_accepts_custom_retry_policy(self):
        repo = SchemaRepository(
            retry_policy=RetryPolicy(attempts=2, base_seconds=0.001,
                                     max_seconds=0.002))
        FAULTS.inject("store.add_schema",
                      error=sqlite3.OperationalError("database is locked"),
                      times=3)
        with pytest.raises(sqlite3.OperationalError):
            repo.add_schema(build_clinic_schema())
        assert repo.retry_count == 1
        repo.close()
