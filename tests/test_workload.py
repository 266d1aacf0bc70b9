"""Tests for repro.workload: catalog, sessions, clicks, replay, training."""

import json

import pytest

from repro.core.config import SchemrConfig
from repro.core.results import SearchResult
from repro.errors import AdmissionRejected, SchemrError
from repro.repository.store import SchemaRepository
from repro.resilience.shedding import AdmissionController
from repro.telemetry.history import SearchHistorySink
from repro.workload import (
    ClickModel,
    EngineTarget,
    HttpTarget,
    ReplayDriver,
    SessionGenerator,
    WorkloadSpec,
    ab_compare,
    attach_schema_ids,
    build_catalog,
    examples_from_history,
    fragment_for,
    heldout_queries,
    regenerate_corpus,
    render_keywords,
    train_weights,
)

CORPUS_SEED = 42
CORPUS_COUNT = 60


@pytest.fixture(scope="module")
def corpus():
    return regenerate_corpus(CORPUS_SEED, CORPUS_COUNT)


@pytest.fixture(scope="module")
def repository(corpus):
    repo = SchemaRepository.in_memory()
    for generated in corpus:
        repo.add_schema(generated.schema)
    yield repo
    repo.close()


@pytest.fixture(scope="module")
def matched(repository, corpus):
    return attach_schema_ids(repository, corpus)


@pytest.fixture(scope="module")
def catalog(matched):
    return build_catalog(matched, 10, seed=23)


@pytest.fixture(scope="module")
def engine(repository):
    engine = repository.engine()
    yield engine
    engine.close()


class TestCatalog:
    def test_regeneration_is_deterministic(self, corpus):
        again = regenerate_corpus(CORPUS_SEED, CORPUS_COUNT)
        assert [g.schema.name for g in again] == \
            [g.schema.name for g in corpus]

    def test_attach_schema_ids_sets_stored_ids(self, matched, repository):
        for generated in matched:
            assert generated.schema.schema_id is not None
            stored = repository.get_schema(generated.schema.schema_id)
            assert stored.name == generated.schema.name

    def test_attach_mismatched_corpus_raises(self, repository):
        other = regenerate_corpus(CORPUS_SEED + 1, 10)
        with pytest.raises(SchemrError, match="no regenerated schema"):
            attach_schema_ids(repository, other)

    def test_zipf_weights_decay(self, catalog):
        weights = [entry.weight for entry in catalog.entries]
        assert weights == sorted(weights, reverse=True)
        assert weights[0] > weights[-1]

    def test_sampling_respects_popularity(self, catalog):
        import random
        rng = random.Random(5)
        draws = [catalog.sample_intent(rng).intent_id for _ in range(2000)]
        counts = [draws.count(i) for i in range(len(catalog))]
        assert counts[0] > counts[-1]

    def test_fragment_is_parseable_ddl(self, catalog):
        from repro.parsers.query_parser import parse_fragment
        for entry in catalog.entries:
            schema = parse_fragment(entry.fragment)
            assert schema.entity_count == 1

    def test_fragment_names_derive_from_query(self, matched):
        query = build_catalog(matched, 1, seed=23).entries[0].query
        fragment = fragment_for(query)
        assert query.template.replace(" ", "_") in fragment

    def test_empty_catalog_rejected(self):
        from repro.workload.catalog import QueryCatalog
        with pytest.raises(SchemrError, match="at least one"):
            QueryCatalog([])


class TestSessions:
    def test_same_spec_same_sessions(self, catalog):
        spec = WorkloadSpec(seed=11, sessions=30, duration_seconds=3600.0)
        first = list(SessionGenerator(catalog, spec).sessions())
        second = list(SessionGenerator(catalog, spec).sessions())
        assert first == second

    def test_different_seed_different_sessions(self, catalog):
        base = WorkloadSpec(seed=11, sessions=30, duration_seconds=3600.0)
        other = WorkloadSpec(seed=12, sessions=30, duration_seconds=3600.0)
        assert list(SessionGenerator(catalog, base).sessions()) != \
            list(SessionGenerator(catalog, other).sessions())

    def test_arrivals_sorted_inside_horizon(self, catalog):
        spec = WorkloadSpec(seed=3, sessions=50, duration_seconds=1000.0)
        starts = [s.started_at
                  for s in SessionGenerator(catalog, spec).sessions()]
        assert starts == sorted(starts)
        assert all(0.0 <= t <= 1000.0 for t in starts)

    def test_diurnal_intensity_peaks_where_configured(self, catalog):
        spec = WorkloadSpec(seed=3, sessions=10, duration_seconds=1000.0,
                            diurnal_amplitude=0.8,
                            diurnal_peak_fraction=0.5, burst_count=0)
        generator = SessionGenerator(catalog, spec)
        assert generator.intensity(500.0) > generator.intensity(0.0)
        assert generator.intensity(500.0) == pytest.approx(1.8)

    def test_bursts_multiply_intensity(self, catalog):
        spec = WorkloadSpec(seed=3, sessions=10, duration_seconds=1000.0,
                            diurnal_amplitude=0.0, burst_count=1,
                            burst_multiplier=5.0)
        generator = SessionGenerator(catalog, spec)
        (burst,) = generator.bursts
        inside = generator.intensity(burst.start + burst.duration / 2)
        assert inside == pytest.approx(5.0)

    def test_session_queries_reference_catalog_intents(self, catalog):
        spec = WorkloadSpec(seed=5, sessions=20, duration_seconds=600.0)
        for session in SessionGenerator(catalog, spec).sessions():
            assert session.queries
            offsets = [q.arrival_offset for q in session.queries]
            assert offsets == sorted(offsets)
            for query in session.queries:
                entry = catalog.entry(query.intent_id)
                assert entry.intent_id == query.intent_id

    def test_fragment_fraction_zero_and_one(self, catalog):
        none_spec = WorkloadSpec(seed=5, sessions=15,
                                 duration_seconds=600.0,
                                 fragment_fraction=0.0)
        all_spec = WorkloadSpec(seed=5, sessions=15,
                                duration_seconds=600.0,
                                fragment_fraction=1.0)
        none_queries = [q for s in SessionGenerator(
            catalog, none_spec).sessions() for q in s.queries]
        all_queries = [q for s in SessionGenerator(
            catalog, all_spec).sessions() for q in s.queries]
        assert all(q.fragment is None for q in none_queries)
        assert all(q.fragment is not None for q in all_queries)

    def test_render_keywords_channels(self):
        import random
        canonical = ["patient record", "diagnosis code"]
        rng = random.Random(1)
        assert render_keywords(canonical, "clean", rng) == tuple(canonical)
        plural = render_keywords(canonical, "plural", random.Random(1))
        assert plural[0].endswith("records")
        delim = render_keywords(canonical, "delimiter", random.Random(1))
        assert " " not in delim[0]

    def test_spec_validation(self):
        with pytest.raises(SchemrError, match="sessions"):
            WorkloadSpec(sessions=0)
        with pytest.raises(SchemrError, match="fragment_fraction"):
            WorkloadSpec(fragment_fraction=1.5)
        with pytest.raises(SchemrError, match="unknown channel"):
            WorkloadSpec(channel_mix=(("nope", 1.0),))


class TestClickModel:
    def _results(self, ids):
        return [SearchResult(schema_id=i, name=f"s{i}", score=0.5,
                             match_count=1, entity_count=1,
                             attribute_count=1) for i in ids]

    def test_examination_decays_with_rank(self):
        model = ClickModel(persistence=0.5)
        assert model.examination(1) == 1.0
        assert model.examination(3) == pytest.approx(0.25)

    def test_irrelevant_results_rarely_clicked(self, catalog):
        model = ClickModel(seed=1, grade0_probability=0.0)
        query = catalog.entries[0].query
        results = self._results([999_999, 999_998])  # not in relevance
        for i in range(50):
            assert model.clicks(query, results, i, 0) == set()

    def test_relevant_top_result_usually_clicked(self, catalog):
        model = ClickModel(seed=1, grade2_probability=1.0)
        entry = next(e for e in catalog.entries if e.query.exact_ids)
        top = next(iter(entry.query.exact_ids))
        results = self._results([top])
        assert model.clicks(entry.query, results, 0, 0) == {top}

    def test_deterministic_per_identifiers(self, catalog):
        model = ClickModel(seed=9)
        entry = catalog.entries[0]
        results = self._results(list(entry.query.relevance)[:5])
        first = model.clicks(entry.query, results, 3, 1)
        again = model.clicks(entry.query, results, 3, 1)
        other = model.clicks(entry.query, results, 4, 1)
        assert first == again
        # a different session may click differently (not asserted
        # unequal — just must not raise and stays within the page)
        assert other <= {r.schema_id for r in results}

    def test_validation(self):
        with pytest.raises(SchemrError, match="persistence"):
            ClickModel(persistence=0.0)
        with pytest.raises(SchemrError, match="grade2"):
            ClickModel(grade2_probability=1.5)


class TestReplayClosedLoop:
    SPEC = WorkloadSpec(seed=7, sessions=25, duration_seconds=3600.0)

    def test_harvest_byte_identical_across_runs(self, engine, catalog,
                                                tmp_path):
        payloads = []
        for run, users in enumerate((3, 1)):
            path = tmp_path / f"h{run}.jsonl"
            sink = SearchHistorySink(path)
            driver = ReplayDriver(EngineTarget(engine), catalog, self.SPEC,
                                  sink=sink)
            report = driver.run_closed_loop(users=users)
            sink.close()
            payloads.append(path.read_bytes())
            assert report.completed == report.queries
        assert payloads[0] == payloads[1]
        assert len(payloads[0]) > 0

    def test_report_accounts_for_every_query(self, engine, catalog):
        driver = ReplayDriver(EngineTarget(engine), catalog, self.SPEC)
        report = driver.run_closed_loop(users=2)
        assert report.mode == "closed"
        assert report.sessions == self.SPEC.sessions
        assert report.queries == report.completed + report.shed + \
            report.errors
        assert report.clicks > 0
        assert report.degradation_mix.get("none") == report.completed
        data = report.to_dict()
        json.dumps(data)
        assert data["shed_fraction"] == 0.0
        assert "sessions" in report.summary()

    def test_harvested_records_carry_virtual_times(self, engine, catalog,
                                                   tmp_path):
        from repro.workload.replay import VIRTUAL_EPOCH
        path = tmp_path / "h.jsonl"
        sink = SearchHistorySink(path)
        ReplayDriver(EngineTarget(engine), catalog, self.SPEC,
                     sink=sink).run_closed_loop(users=2)
        sink.close()
        records = SearchHistorySink.load(path)
        assert records
        stamps = [r.recorded_at for r in records]
        assert all(s >= VIRTUAL_EPOCH for s in stamps)
        assert all(r.total_seconds == 0.0 for r in records)

    def test_users_validated(self, engine, catalog):
        driver = ReplayDriver(EngineTarget(engine), catalog, self.SPEC)
        with pytest.raises(SchemrError, match="users"):
            driver.run_closed_loop(users=0)


class TestReplayOpenLoop:
    SPEC = WorkloadSpec(seed=7, sessions=20, duration_seconds=3600.0)

    def test_sheds_under_admission_pressure(self, repository, catalog):
        # Pressure needs searches that take real time: with the result
        # cache on, the module's earlier replays of these same sessions
        # would answer every query in microseconds.
        engine = repository.engine(config=SchemrConfig(query_cache_size=0))
        admission = AdmissionController(max_concurrent=1, queue_size=0,
                                        queue_timeout_seconds=0.0)
        driver = ReplayDriver(EngineTarget(engine, admission=admission),
                              catalog, self.SPEC)
        try:
            report = driver.run_open_loop(target_qps=400.0, max_workers=8)
        finally:
            engine.close()
        assert report.mode == "open"
        assert report.shed > 0
        assert report.queries == report.completed + report.shed
        assert report.shed == admission.rejected_total
        assert 0.0 < report.shed_fraction <= 1.0

    def test_unloaded_open_loop_completes_everything(self, engine, catalog):
        driver = ReplayDriver(EngineTarget(engine), catalog, self.SPEC)
        report = driver.run_open_loop(target_qps=300.0)
        assert report.shed == 0
        assert report.completed == report.queries
        assert report.target_qps == 300.0

    def test_parameters_validated(self, engine, catalog):
        driver = ReplayDriver(EngineTarget(engine), catalog, self.SPEC)
        with pytest.raises(SchemrError, match="target_qps"):
            driver.run_open_loop(target_qps=0.0)
        with pytest.raises(SchemrError, match="max_workers"):
            driver.run_open_loop(target_qps=1.0, max_workers=0)


class TestReplayMetrics:
    def test_counters_flow_through_catalogued_names(self, engine, catalog):
        from repro.telemetry import Telemetry
        telemetry = Telemetry(enabled=True)
        spec = WorkloadSpec(seed=7, sessions=5, duration_seconds=600.0)
        driver = ReplayDriver(EngineTarget(engine), catalog, spec,
                              telemetry=telemetry)
        report = driver.run_closed_loop(users=1)
        text = telemetry.metrics.to_prometheus_text()
        assert "schemr_workload_sessions_total 5" in text
        assert f"schemr_workload_queries_total {report.queries}" in text
        telemetry.close()

    def test_metric_names_are_catalogued(self):
        from repro.telemetry.catalog import METRICS
        for name in ("schemr_workload_sessions_total",
                     "schemr_workload_queries_total",
                     "schemr_workload_clicks_total",
                     "schemr_workload_shed_total",
                     "schemr_workload_errors_total",
                     "schemr_workload_request_seconds",
                     "schemr_workload_lag_seconds"):
            assert name in METRICS


class TestHttpTarget:
    def test_replays_against_live_server(self, tmp_path, corpus):
        from repro.service.server import SchemrServer
        repo = SchemaRepository(str(tmp_path / "repo.db"))
        for generated in corpus:
            repo.add_schema(generated.schema)
        matched = attach_schema_ids(repo, corpus)
        catalog = build_catalog(matched, 6, seed=23)
        server = SchemrServer(repo, port=0)
        server.start()
        try:
            target = HttpTarget(server.base_url)
            spec = WorkloadSpec(seed=7, sessions=6,
                                duration_seconds=600.0)
            report = ReplayDriver(target, catalog,
                                  spec).run_closed_loop(users=2)
            assert report.completed == report.queries
            assert report.errors == 0
        finally:
            server.stop()
            repo.close()

    def test_429_maps_to_shed(self):
        from repro.errors import ServiceError

        class Boom:
            def search_meta(self, **kwargs):
                raise ServiceError("too many", status=429)

        target = HttpTarget("http://127.0.0.1:1")
        target._client = Boom()
        with pytest.raises(AdmissionRejected):
            target.search(("a",), None, 5)


class TestTrainingPipeline:
    @pytest.fixture(scope="class")
    def history(self, engine, catalog, tmp_path_factory):
        path = tmp_path_factory.mktemp("hist") / "h.jsonl"
        sink = SearchHistorySink(path)
        spec = WorkloadSpec(seed=7, sessions=40, duration_seconds=3600.0)
        ReplayDriver(EngineTarget(engine), catalog, spec,
                     sink=sink).run_closed_loop(users=2)
        sink.close()
        return SearchHistorySink.load(path)

    def test_examples_only_from_clicked_pages(self, history, repository):
        examples = examples_from_history(history, repository)
        assert examples
        clicked_pages = [r for r in history if r.clicked_ids]
        assert len(examples) == sum(len(r.results) for r in clicked_pages)
        assert any(e.relevant for e in examples)
        assert any(not e.relevant for e in examples)
        for example in examples:
            assert set(example.features) == {"name", "context"}

    def test_train_weights_normalized(self, history, repository):
        _, report = train_weights(history, repository)
        assert report.examples > 0
        assert report.positives > 0
        assert sum(report.weights.values()) == pytest.approx(1.0)
        assert all(w >= 0 for w in report.weights.values())
        assert "learned weights" in report.summary()

    def test_heldout_excludes_catalog_intents(self, matched, catalog):
        held = heldout_queries(matched, 8, seed=51,
                               exclude=[e.query for e in catalog.entries])
        catalog_keys = {tuple(e.query.canonical_keywords)
                        for e in catalog.entries}
        assert held
        for query in held:
            assert tuple(query.canonical_keywords) not in catalog_keys

    def test_ab_compare_trained_vs_uniform(self, history, repository,
                                           matched, catalog):
        _, report = train_weights(history, repository)
        held = heldout_queries(matched, 8, seed=51,
                               exclude=[e.query for e in catalog.entries])
        result = ab_compare(repository, report.weights, held, top_n=10,
                            bootstrap_iterations=200)
        assert result.queries == len(held)
        assert 0.0 <= result.precision.p_value <= 1.0
        assert result.trained_no_worse
        data = result.to_dict()
        json.dumps(data)
        assert data["precision_at_k"]["method"] == "paired-bootstrap"

    def test_ab_needs_queries(self, repository):
        with pytest.raises(SchemrError, match="at least one query"):
            ab_compare(repository, {"name": 0.5, "context": 0.5}, [])


class TestWorkloadCli:
    def test_replay_then_train_weights(self, tmp_path, capsys):
        from repro.cli import main
        db = str(tmp_path / "repo.db")
        history = str(tmp_path / "h.jsonl")
        assert main(["init", db]) == 0
        assert main(["generate", db, "--count", "60", "--seed", "42"]) == 0
        assert main(["replay", db, "--sessions", "25",
                     "--corpus-seed", "42", "--corpus-count", "60",
                     "--catalog-size", "8", "--history", history]) == 0
        out = capsys.readouterr().out
        assert "closed loop" in out
        assert "harvested" in out
        assert main(["train-weights", db, history,
                     "--corpus-seed", "42", "--corpus-count", "60",
                     "--catalog-size", "8", "--heldout", "6",
                     "--out", str(tmp_path / "ab.json")]) == 0
        out = capsys.readouterr().out
        assert "learned weights" in out
        assert "trained no worse than uniform" in out
        ab = json.loads((tmp_path / "ab.json").read_text(encoding="utf-8"))
        assert "training" in ab and "ab" in ab

    def test_replay_open_mode_with_shedding(self, tmp_path, capsys):
        from repro.cli import main
        db = str(tmp_path / "repo.db")
        assert main(["init", db]) == 0
        assert main(["generate", db, "--count", "60", "--seed", "42"]) == 0
        assert main(["replay", db, "--mode", "open", "--sessions", "15",
                     "--corpus-seed", "42", "--corpus-count", "60",
                     "--catalog-size", "8", "--target-qps", "300",
                     "--max-concurrent", "1", "--admission-queue", "0",
                     "--admission-timeout", "0"]) == 0
        out = capsys.readouterr().out
        assert "open loop" in out

    def test_train_weights_empty_history_fails(self, tmp_path, capsys):
        from repro.cli import main
        db = str(tmp_path / "repo.db")
        history = tmp_path / "empty.jsonl"
        history.write_text("", encoding="utf-8")
        assert main(["init", db]) == 0
        assert main(["train-weights", db, str(history)]) == 1
        assert "no history records" in capsys.readouterr().err


class TestBenchmarkSummarize:
    def test_merges_bench_files_into_table(self, tmp_path):
        import sys
        sys.path.insert(0, str((__import__("pathlib").Path(__file__)
                                .resolve().parent.parent / "benchmarks")))
        try:
            from summarize import summarize
        finally:
            sys.path.pop(0)
        (tmp_path / "BENCH_workload.json").write_text(json.dumps({
            "harvest_deterministic": True,
            "closed_loop": {"achieved_qps": 95.2, "p99_ms": 140.0},
            "open_loop": {"shed_fraction": 0.4, "p99_ms": 80.0},
            "ab": {"precision_at_k": {"delta": 0.01, "p_value": 0.3}},
            "trained_no_worse_than_uniform": True,
        }), encoding="utf-8")
        (tmp_path / "BENCH_unknown.json").write_text(
            json.dumps({"speed": 3.5, "ok": True}), encoding="utf-8")
        table = summarize(tmp_path)
        assert "| workload replay | harvest deterministic | yes |" in table
        assert "closed-loop qps | 95.2" in table
        assert "unknown" in table and "3.5" in table

    def test_empty_directory_degrades(self, tmp_path):
        import sys
        sys.path.insert(0, str((__import__("pathlib").Path(__file__)
                                .resolve().parent.parent / "benchmarks")))
        try:
            from summarize import summarize
        finally:
            sys.path.pop(0)
        assert "no BENCH_*.json" in summarize(tmp_path)
