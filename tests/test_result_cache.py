"""The finished-page result cache of :class:`SchemrEngine`.

The load-bearing property is differential: an engine with the cache and
an engine with ``query_cache_size=0`` over the same index and schema
source return byte-identical pages — ids, ``%.6f`` scores, drill-in
element matches and the degradation label — through repeats, paging,
repository writes with and without a refresh, segment flushes and
merges, ensemble re-weighting, and injected matcher and schema-source
failures, whose pages must never be admitted.
"""

from __future__ import annotations

import itertools
import shutil
import sys
import tempfile
import threading

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from repro.cli import main
from repro.core.config import SchemrConfig
from repro.corpus.generator import CorpusGenerator
from repro.index.segments.merge import TieredMergePolicy
from repro.matching.ensemble import MatcherEnsemble
from repro.model.elements import Attribute
from repro.repository.store import SchemaRepository
from repro.resilience.faults import FAULTS
from repro.sharding import ShardedEngine
from repro.telemetry import SearchHistorySink

from tests.conftest import (build_clinic_schema, build_conservation_schema,
                            build_hr_schema)

#: (keywords, fragment) pairs; few enough that repeats are the norm.
QUERIES = (
    ("patient height gender diagnosis", None),
    (["employee", "salary"], None),
    ("name", None),
    (None, "CREATE TABLE patient (height DECIMAL(5,2), gender CHAR(1));"),
    ("site species",
     "CREATE TABLE observation (species VARCHAR(100), count INTEGER);"),
)

#: Breakers that never trip, so an injected failure leaves no state (an
#: open breaker) behind the step that injected it.
NEVER_TRIP = 10 ** 9


def page_bytes(engine, page) -> tuple:
    """What a client observes of a page: ids, ``%.6f`` scores, drill-in
    matches, and the calling thread's degradation label."""
    rows = [(result.schema_id, f"{result.score:.6f}",
             tuple((match.query_label, match.element_path,
                    f"{match.score:.6f}")
                   for match in result.element_matches))
            for result in page]
    return rows, engine.thread_profile.degradation


def run(engine, query: int, top_n: int = 10, offset: int = 0) -> tuple:
    """One search: (served from the result cache?, page bytes)."""
    keywords, fragment = QUERIES[query]
    page = engine.search(keywords=keywords, fragment=fragment, top_n=top_n,
                         offset=offset)
    return engine.thread_profile.result_cache_hit, page_bytes(engine, page)


def fill(repo: SchemaRepository) -> None:
    for schema in (build_clinic_schema(), build_hr_schema(),
                   build_conservation_schema()):
        repo.add_schema(schema)
    for generated in CorpusGenerator(seed=5).generate(12):
        repo.add_schema(generated.schema)


@pytest.fixture(autouse=True)
def clean_faults():
    FAULTS.reset()
    yield
    FAULTS.reset()


# -- differential: cached vs uncached ----------------------------------------

class CachedVersusUncached(RuleBasedStateMachine):
    """Two engines over one segmented index and one profile store; only
    ``query_cache_size`` differs."""

    def __init__(self) -> None:
        super().__init__()
        self.workdir = tempfile.mkdtemp(prefix="schemr-result-cache-")
        self.repo = SchemaRepository.in_memory()
        fill(self.repo)
        # merge_policy "none": segments pile up until a merge step.
        self.indexer = self.repo.indexer(segment_dir=self.workdir,
                                         merge_policy="none")
        self.store = self.repo.profile_store()
        self.cached = self.repo.engine(config=SchemrConfig(
            breaker_failure_threshold=NEVER_TRIP))
        self.plain = self.repo.engine(config=SchemrConfig(
            query_cache_size=0, breaker_failure_threshold=NEVER_TRIP))
        assert self.plain.result_cache is None
        self.edits = 0
        #: A (query, top_n, offset) the cache last served; cleared by
        #: every step that may move the stamp.
        self.warm: tuple[int, int, int] | None = None

    def teardown(self) -> None:
        FAULTS.reset()
        self.cached.close()
        self.plain.close()
        self.repo.close()
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _schema_id(self, pick: int) -> int:
        ids = self.repo.list_schema_ids()
        return ids[pick % len(ids)]

    @rule(query=st.integers(0, len(QUERIES) - 1),
          top_n=st.sampled_from([3, 10]), offset=st.sampled_from([0, 3]))
    def search(self, query, top_n, offset):
        hit, seen = run(self.cached, query, top_n, offset)
        _, expected = run(self.plain, query, top_n, offset)
        assert seen == expected
        if hit:
            self.warm = (query, top_n, offset)

    @rule(pick=st.integers(0, 100), refresh=st.booleans())
    def update_schema(self, pick, refresh):
        schema = self.repo.get_schema(self._schema_id(pick))
        self.edits += 1
        entity = next(iter(schema.entities.values()))
        entity.add_attribute(Attribute(f"patient_note_{self.edits}", "TEXT"))
        self.repo.update_schema(schema)
        if refresh:
            self.indexer.refresh()
        self.warm = None

    @precondition(lambda self: self.repo.schema_count > 5)
    @rule(pick=st.integers(0, 100), refresh=st.booleans())
    def delete_schema(self, pick, refresh):
        self.repo.delete_schema(self._schema_id(pick))
        if refresh:
            self.indexer.refresh()
        self.warm = None

    @rule()
    def refresh(self):
        self.indexer.refresh()
        self.warm = None

    @rule()
    def flush_and_merge(self):
        index = self.indexer.index
        generation = index.generation
        index.flush(last_change_id=index.last_change_id)
        index.maybe_merge(TieredMergePolicy(max_per_tier=1, floor_docs=4))
        assert index.generation == generation
        if self.warm is not None:
            # Flushes and merges keep the generation: still warm.
            hit, seen = run(self.cached, *self.warm)
            _, expected = run(self.plain, *self.warm)
            assert hit
            assert seen == expected

    @rule(weights=st.sampled_from([{"name": 1.0, "context": 1.0},
                                   {"name": 2.0, "context": 0.5},
                                   {"name": 0.25, "context": 1.0}]))
    def set_weights(self, weights):
        self.cached.ensemble.set_weights(weights)
        self.plain.ensemble.set_weights(weights)
        self.warm = None

    def _faulty_search(self, site: str, query: int) -> None:
        """Search both engines with ``site`` failing on every hit; a
        page whose run hit the fault must not be admitted."""
        FAULTS.inject(site, error=RuntimeError("chaos"))
        try:
            triggered = FAULTS.triggered(site)
            hit, seen = run(self.cached, query)
            failed = FAULTS.triggered(site) > triggered
            _, expected = run(self.plain, query)
            again, _ = run(self.cached, query)
        finally:
            FAULTS.disarm(site)
        if hit:
            # Admitted earlier at this stamp: the full-fidelity page.
            assert not failed
            _, expected = run(self.plain, query)
        assert seen == expected
        if failed:
            assert not again, "a page built through a failure was admitted"

    @rule(query=st.integers(0, len(QUERIES) - 1),
          site=st.sampled_from(["matcher.name", "matcher.context"]))
    def matcher_failure(self, query, site):
        self._faulty_search(site, query)

    @rule(query=st.integers(0, len(QUERIES) - 1), pick=st.integers(0, 100))
    def source_failure(self, query, pick):
        # Evict one profile so its next fetch reaches the failing path.
        self.store.invalidate(self._schema_id(pick))
        self._faulty_search("profile_store.lookup", query)
        self.warm = None


TestCachedVersusUncached = CachedVersusUncached.TestCase
TestCachedVersusUncached.settings = settings(
    max_examples=20, stateful_step_count=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])


def test_sharded_engine_fixed_sequence(tmp_path):
    """Two shards: the cached front answers exactly what an uncached
    in-process engine over the same union index answers."""
    repo = SchemaRepository(str(tmp_path / "repo.db"))
    fill(repo)
    sharded = ShardedEngine(repo, config=SchemrConfig(
        segment_dir=str(tmp_path / "segments"), shards=2))
    plain = repo.engine(config=SchemrConfig(query_cache_size=0))
    try:
        assert sharded.ensemble is None
        assert isinstance(plain.ensemble, MatcherEnsemble)

        def outcomes(query: int, top_n: int = 10, offset: int = 0):
            seen = []
            for _ in range(3):
                hit, page = run(sharded, query, top_n, offset)
                assert page == run(plain, query, top_n, offset)[1]
                seen.append(hit)
            return seen

        # First sight, second sight (admitted), then served.
        assert outcomes(0) == [False, False, True]
        assert sharded.last_profile.shards_used == 2
        assert outcomes(3, top_n=3) == [False, False, True]
        # Another page of a query phase 1 has seen: admitted at once.
        assert outcomes(3, top_n=3, offset=3) == [False, True, True]
        repo.add_schema(build_clinic_schema("clinic_copy"))
        repo.indexer().refresh()
        assert outcomes(0) == [False, False, True]
        repo.delete_schema(repo.list_schema_ids()[1])
        repo.indexer().refresh()
        assert outcomes(1) == [False, False, True]
    finally:
        sharded.close()
        plain.close()
        repo.close()


# -- telemetry and history parity --------------------------------------------

@pytest.fixture
def telemetry_engine(small_repository):
    engine = small_repository.engine(
        config=SchemrConfig(telemetry_enabled=True))
    yield engine
    engine.close()


class TestTelemetryParity:
    def test_hit_writes_the_history_of_the_miss_before_it(
            self, small_repository, tmp_path):
        path = tmp_path / "searches.jsonl"
        engine = small_repository.engine(config=SchemrConfig(
            telemetry_enabled=True, history_path=str(path)))
        try:
            for _ in range(3):
                engine.search(keywords="patient height", top_n=2)
            assert engine.last_profile.result_cache_hit
        finally:
            engine.close()
        records = SearchHistorySink.load(path)
        assert len(records) == 3
        miss, hit = records[1], records[2]
        assert hit.query_terms == miss.query_terms
        assert [r["schema_id"] for r in hit.results] == \
            [r["schema_id"] for r in miss.results]

    def test_hit_counts_as_a_search_but_not_a_phase1_query(
            self, telemetry_engine):
        for _ in range(3):
            page = telemetry_engine.search(keywords="patient height")
        profile = telemetry_engine.last_profile
        assert profile.result_cache_hit
        assert profile.cache_hit is False  # phase 1 did not run
        assert profile.phase_seconds == {}
        assert profile.total_seconds > 0
        snap = telemetry_engine.telemetry.metrics.snapshot()
        assert snap.value("schemr_searches_total") == 3
        assert snap.find("schemr_search_seconds").count == 3
        assert snap.value("schemr_results_total") == 3 * len(page)
        assert snap.value("schemr_result_cache_hits_total") == 1
        assert snap.value("schemr_result_cache_misses_total") == 2
        assert snap.value("schemr_result_cache_entries") == 1
        assert snap.value("schemr_phase1_queries_total", cache="miss") == 1
        assert snap.value("schemr_phase1_queries_total", cache="hit") == 1
        assert snap.find("schemr_phase1_candidates").count == 2
        assert telemetry_engine.telemetry.profiles.total_count == 3

    def test_summary_shows_the_result_cache_outcome(self, telemetry_engine):
        telemetry_engine.search(keywords="patient height")
        row = telemetry_engine.last_profile.summary().splitlines()[1]
        assert row.split() == ["result_cache", "miss"]
        for _ in range(2):
            telemetry_engine.search(keywords="patient height")
        row = telemetry_engine.last_profile.summary().splitlines()[1]
        assert row.split() == ["result_cache", "hit"]

    def test_cli_trace_shows_the_result_cache_outcome(self, tmp_path,
                                                      capsys):
        db = str(tmp_path / "v.db")
        with SchemaRepository(db) as repo:
            repo.add_schema(build_clinic_schema())
        assert main(["search", db, "--keywords", "patient", "--trace"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert ["result_cache", "miss"] in rows

    def test_distinct_queries_leave_the_cache_empty(self, small_repository):
        """The RSS guard: never-repeated traffic admits nothing."""
        engine = small_repository.engine()
        try:
            words = ("".join(letters) for letters in
                     itertools.product("bcdfgkmpvz", repeat=3))
            for word in itertools.islice(words, 300):
                engine.search(keywords=f"patient {word}")
            assert len(engine.result_cache) == 0
            assert engine.result_cache.misses == 300
        finally:
            engine.close()


# -- behaviour at the edges ----------------------------------------------------

class TestResultCache:
    def test_hits_are_copies(self, small_repository):
        engine = small_repository.engine()
        try:
            engine.search(keywords="patient height")
            admitted = engine.search(keywords="patient height")
            admitted[0].score = -1.0
            served = engine.search(keywords="patient height")
            assert engine.last_profile.result_cache_hit
            assert served[0].score != -1.0
            served[0].element_scores.clear()
            served[0].element_matches.clear()
            served.clear()
            again = engine.search(keywords="patient height")
            assert again[0].element_scores and again[0].element_matches
        finally:
            engine.close()

    def test_schema_fragments_are_not_cached(self, small_repository):
        engine = small_repository.engine()
        try:
            for _ in range(3):
                engine.search(fragment=build_clinic_schema("probe"))
            assert not engine.last_profile.result_cache_hit
            assert len(engine.result_cache) == 0
        finally:
            engine.close()

    def test_zero_size_disables_both_caches(self, small_repository):
        engine = small_repository.engine(
            config=SchemrConfig(query_cache_size=0))
        try:
            assert engine.result_cache is None
            assert engine.searcher.query_cache is None
        finally:
            engine.close()

    def test_writes_move_the_source_versions(self, small_repository):
        store = small_repository.profile_store()
        repo_version, store_version = small_repository.version, store.version
        small_repository.update_schema(small_repository.get_schema(1))
        assert small_repository.version > repo_version
        assert store.version > store_version
        store_version = store.version
        store.invalidate(2)
        store.get_schema(2)  # a read-through fill is not a write
        assert store.version == store_version + 1

    def test_concurrent_searches_see_uncached_pages(self, small_repository):
        engine = small_repository.engine()
        plain = small_repository.engine(
            config=SchemrConfig(query_cache_size=0))
        queries = ["patient height", "salary name", "species site",
                   "doctor gender", "name"]
        expected = {keywords: page_bytes(plain,
                                         plain.search(keywords=keywords))
                    for keywords in queries}
        errors: list[BaseException] = []

        def work(start: int) -> None:
            try:
                for i in range(40):
                    keywords = queries[(start + i) % len(queries)]
                    page = engine.search(keywords=keywords)
                    assert page_bytes(engine, page) == expected[keywords]
            except BaseException as exc:  # lint: fault-boundary (re-raised in the main thread after the join)
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(n,))
                       for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        try:
            assert not any(thread.is_alive() for thread in threads)
            if errors:
                raise errors[0]
            assert engine.result_cache.hits > 0
        finally:
            engine.close()
            plain.close()
