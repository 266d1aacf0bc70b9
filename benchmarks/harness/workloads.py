"""The four workloads: set-up, untraced measurement, traced diagnosis.

Each workload builds its own fixture (timed: ``setup_s``), generates
its inputs from the seed, and then either *measures* the end-to-end
metrics with tracing off or *diagnoses* the per-layer metrics with
spans on.  Why each exists is recorded in :mod:`.metrics` and the
README.
"""

from __future__ import annotations

import math
import os
import shutil
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.config import SchemrConfig
from repro.index.documents import document_from_schema
from repro.index.segments import (
    SegmentedIndex,
    open_segment_index,
    verify_directory,
)
from repro.repository.store import SchemaRepository
from repro.service.client import SchemrClient
from repro.sharding import ShardedEngine

from benchmarks.harness import fixture as fx
from benchmarks.harness import inputs, layers
from benchmarks.harness.inputs import Batch, Query
from benchmarks.harness.loadgen import Call, Sample, closed_loop, open_loop
from benchmarks.harness.oracle import TOP_N, Oracle, page_of
from benchmarks.harness.stats import fast_quartile, percentile, summarize
from benchmarks.harness.tracing import Tracer

CONNECTIONS = 2
SHARDS = 2
PACED_QPS = 10.0
READER_QPS = 10.0

#: Queries that fill the caches before timing starts.
WARM_ZIPF, WARM_KEYWORD, WARM_FRAGMENT = 150, 50, 30


@dataclass
class Options:
    seed: int
    seconds: float
    corpus_seed: int = fx.DEFAULT_CORPUS_SEED
    corpus_count: int = fx.DEFAULT_CORPUS_COUNT


@dataclass
class Outcome:
    """What one run of one workload in one mode produced."""

    metrics: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def timing(self, name: str, values_ms: list[float]) -> None:
        """Record the median of a series and its sample count."""
        summary = summarize(values_ms)
        self.metrics[name] = summary["p50"]
        self.counts[name] = summary["n"]

    def tail(self, values_ms: list[float]) -> None:
        summary = summarize(values_ms)
        self.metrics["workload.latency_tail_ms"] = summary["tail"]
        self.metrics["workload.latency_tail_pct"] = summary["tail_pct"]
        self.counts["workload.latency_tail_ms"] = summary["n"]

    def check(self, passed: bool, what: str) -> None:
        """One oracle check; a failed one fails the run."""
        self.attempted += 1
        if not passed:
            self.failed += 1
            self.notes.append(f"oracle: {what}")


class HttpCalls:
    """Builds per-connection request functions against one server."""

    def __init__(self, url: str) -> None:
        self.url = url
        self.degraded: list[str] = []

    def __call__(self) -> Call:
        client = SchemrClient(self.url, timeout=30.0, retry_policy=None)

        def call(query: Query):
            results, degradation = client.search_meta(
                query.text, query.fragment, TOP_N)
            if degradation != "none":
                self.degraded.append(degradation)
            return page_of(results)

        return call


def engine_calls(engine):
    """``make_call`` for an in-process engine."""
    def call(query: Query):
        return page_of(layers.search(engine, query))
    return lambda: call


def _closed_summary(outcome: Outcome, samples: list[Sample], seconds: float,
                    failures: int) -> None:
    """Throughput and median latency of a closed loop (see
    :func:`~benchmarks.harness.stats.fast_quartile`)."""
    outcome.attempted += len(samples)
    outcome.failed += failures
    opened = min(s.start for s in samples)
    throughput, latency = fast_quartile(
        [(s.end - opened, s.latency_ms) for s in samples], seconds)
    outcome.metrics["throughput_qps"] = throughput
    outcome.metrics["latency_p50_ms"] = latency
    outcome.counts["throughput_qps"] = len(samples)
    outcome.counts["latency_p50_ms"] = len(samples)


class Workload:
    """Shared lifecycle; subclasses fill in the four steps."""

    name = ""

    def __init__(self, options: Options) -> None:
        self.options = options
        self.fixture: fx.Fixture | None = None
        self.server: fx.ServerProcess | None = None
        self.repo: SchemaRepository | None = None
        self.engine = None

    # -- lifecycle -----------------------------------------------------

    def setup(self, workdir: Path) -> None:
        """Empty directory to ready-to-measure (timed by the caller)."""
        raise NotImplementedError

    def generate(self) -> None:
        """Derive this run's inputs from ``options.seed``."""
        raise NotImplementedError

    def measure(self) -> Outcome:
        """The untraced run: every end-to-end metric but ``setup_s``."""
        raise NotImplementedError

    def diagnose(self, tracer: Tracer) -> Outcome:
        """The traced run: this workload's per-layer metrics."""
        raise NotImplementedError

    def teardown(self) -> list[str]:
        """Stop everything and delete the fixture; returns problems."""
        problems = []
        if self.engine is not None:
            self.engine.close()
            self.engine = None
        if self.repo is not None:
            self.repo.close()
            self.repo = None
        if self.server is not None:
            killed = self.server.stop()
            if killed:
                problems.append(f"shard workers outlived the server and "
                                f"were killed: {killed}")
            self.server = None
        if self.fixture is not None:
            shutil.rmtree(self.fixture.workdir, ignore_errors=True)
        return problems

    # -- helpers -------------------------------------------------------

    def _build(self, workdir: Path, flat: bool = False, shards: int = 0
               ) -> fx.Fixture:
        self.fixture = fx.build_fixture(
            workdir, self.options.corpus_seed, self.options.corpus_count,
            flat=flat, shards=shards)
        return self.fixture

    def _timed(self, stage: str, build):
        started = time.perf_counter()
        value = build()
        self.fixture.stages[stage] = time.perf_counter() - started
        return value

    def _open_engine(self, root: Path, segment_dir: Path) -> None:
        """The in-process engine the way a library caller builds it."""
        self.repo = SchemaRepository(root / "repo.db")
        self.repo.profile_store(
            capacity=fx.scaled_profile_capacity(self.fixture.kept))
        self.engine = self.repo.engine(
            config=SchemrConfig(segment_dir=str(segment_dir)))

    def _budget(self, per_second: float) -> int:
        """Queries enough to outlast the measured window."""
        return int(self.options.seconds * per_second) + 20


class _ServeWorkload(Workload):
    """What the two HTTP workloads share."""

    warm_count = 0
    queries: list[Query]

    def _warm(self, calls: HttpCalls) -> list[Query]:
        warm = self.queries[:self.warm_count]
        closed_loop(calls, warm, 1, math.inf)
        return warm

    def measure(self) -> Outcome:
        outcome = Outcome()
        calls = HttpCalls(self.server.url)
        self._warm(calls)
        timed = self.queries[self.warm_count:]
        samples = closed_loop(calls, timed, CONNECTIONS,
                              self.options.seconds)
        outcome.metrics["peak_rss_mb"] = self.server.peak_rss_mb()
        with Oracle(self.fixture.db) as oracle:
            failures = oracle.failures(samples, timed)
        _closed_summary(outcome, samples, self.options.seconds, failures)
        return outcome

    def _serve_probes(self, tracer: Tracer, outcome: Outcome,
                      single: list[Sample], timed: list[Query],
                      calls: HttpCalls, before: dict[str, float]) -> None:
        """Probes both serve workloads take after the one-connection
        series ``single`` over the head of ``timed``."""
        rest = timed[len(single):]
        double = closed_loop(calls, rest, CONNECTIONS,
                             self.options.seconds * 0.3)
        for _ in range(30):
            with tracer.span("service.health_rtt"):
                with urllib.request.urlopen(f"{self.server.url}/health",
                                            timeout=10.0) as response:
                    response.read()
        after = self.server.counters()

        def delta(name: str) -> float:
            return after.get(name, 0.0) - before.get(name, 0.0)

        with Oracle(self.fixture.db) as oracle:
            failures = (oracle.failures(single, timed)
                        + oracle.failures(double, rest))
        attempted = len(single) + len(double)
        outcome.attempted += attempted
        outcome.failed += failures
        cache_hits = delta("schemr_query_cache_hits_total")
        p50_single = summarize([s.latency_ms for s in single])["p50"]
        p50_double = summarize([s.latency_ms for s in double])["p50"]
        outcome.tail([s.latency_ms for s in double])
        outcome.metrics.update({
            "service.health_rtt_ms": layers.mean(
                tracer.durations_ms("service.health_rtt")),
            "service.concurrency_penalty_ratio": layers.ratio(
                p50_double, p50_single),
            "index.query_cache_hit_ratio": layers.ratio(
                cache_hits,
                cache_hits + delta("schemr_query_cache_misses_total")),
            "resilience.shed_fraction": layers.ratio(
                delta("schemr_admission_rejected_total")
                + delta("schemr_admission_timeouts_total"), attempted),
            "resilience.degraded_fraction": layers.ratio(
                len(calls.degraded), attempted),
            "sharding.respawns": after.get("schemr_shard_restarts_total",
                                           0.0),
            "workload.failed_fraction": layers.ratio(failures, attempted),
        })
        outcome.metrics.update(layers.admission())


class ServeZipfHttp(_ServeWorkload):
    name = "serve_zipf_http"
    warm_count = WARM_ZIPF

    def setup(self, workdir: Path) -> None:
        fixture = self._build(workdir, flat=True)
        self.catalog = self._timed("catalog", lambda: inputs.zipf_catalog(
            fixture.corpus, self.options.corpus_seed))
        self.server = self._timed("server_start", lambda: fx.ServerProcess(
            fixture.db, fixture.flat_dir))

    def generate(self) -> None:
        self.queries = inputs.zipf_stream(
            self.catalog, self.options.seed,
            self.warm_count + self._budget(150))

    def diagnose(self, tracer: Tracer) -> Outcome:
        outcome = Outcome()
        calls = HttpCalls(self.server.url)
        warm = self._warm(calls)
        timed = self.queries[self.warm_count:]
        before = self.server.counters()
        # Phase A: independent users, so an open loop; latency counts
        # from the due time.  At 10 qps one request is in flight at a
        # time, which also makes this the one-connection series.
        paced = open_loop(calls, timed, PACED_QPS, self.options.seconds,
                          senders=CONNECTIONS)
        sample = timed[:len(paced)]
        self._serve_probes(tracer, outcome, paced, timed, calls, before)
        due = sorted(s.due_latency_ms for s in paced)
        outcome.timing("workload.paced_latency_p50_ms", due)
        outcome.metrics["workload.paced_latency_p90_ms"] = (
            percentile(due, 90.0) if len(due) >= 100 else 0.0)
        outcome.metrics["workload.lag_p95_ms"] = percentile(
            sorted(s.lag_ms for s in paced), 95.0) if paced else 0.0

        repo = SchemaRepository(self.fixture.db)
        try:
            index = SegmentedIndex.open(self.fixture.flat_dir)
            # Mirror the server: its default profile cache, warmed by
            # the same queries in the same order.
            parts, pages = layers.decompose(
                tracer, index, repo, fx.SERVER_PROFILE_CAPACITY, warm,
                sample)
        finally:
            repo.close()
        served = parts.pop("index.query_cache_hit_ratio")
        outcome.notes.append(
            f"in-process query-cache hit ratio {served:.3f} (the metric "
            "reports the server's)")
        outcome.metrics.update(parts)
        outcome.metrics.update(layers.wire(tracer, pages, sample))
        outcome.metrics.update(layers.segment_open(self.fixture.flat_dir))
        outcome.metrics["service.http_overhead_ms"] = (
            layers.mean([s.latency_ms for s in paced])
            - parts["core.search_ms"])
        return outcome


class ServeShardedKw(_ServeWorkload):
    name = "serve_sharded_kw"
    warm_count = WARM_KEYWORD

    def setup(self, workdir: Path) -> None:
        fixture = self._build(workdir, shards=SHARDS)
        self.server = self._timed("server_start", lambda: fx.ServerProcess(
            fixture.db, fixture.sharded_dir, shards=SHARDS))

    def generate(self) -> None:
        self.queries = inputs.keyword_queries(
            self.fixture.corpus, self.options.seed,
            self.warm_count + self._budget(150))

    def diagnose(self, tracer: Tracer) -> Outcome:
        outcome = Outcome()
        calls = HttpCalls(self.server.url)
        warm = self._warm(calls)
        timed = self.queries[self.warm_count:]
        before = self.server.counters()
        single = closed_loop(calls, timed, 1, self.options.seconds * 0.3)
        sample = timed[:len(single)]
        self._serve_probes(tracer, outcome, single, timed, calls, before)

        repo = SchemaRepository(self.fixture.db)
        try:
            # A sharded directory is also a plain index: one engine
            # over it is the single-process base of the sharding tax.
            index = open_segment_index(self.fixture.sharded_dir)
            parts, pages = layers.decompose(
                tracer, index, repo, fx.SERVER_PROFILE_CAPACITY, warm,
                sample)
        finally:
            repo.close()
        del parts["index.query_cache_hit_ratio"]
        outcome.metrics.update(parts)
        outcome.metrics.update(layers.wire(tracer, pages, sample))
        outcome.metrics.update(layers.segment_open(self.fixture.sharded_dir))
        pool = self._in_process_pool(tracer, warm, sample)
        pool["sharding.respawns"] += outcome.metrics["sharding.respawns"]
        outcome.metrics.update(pool)
        outcome.metrics["sharding.tax_ratio"] = layers.ratio(
            outcome.metrics["sharding.search_ms"], parts["core.search_ms"])
        outcome.metrics["service.http_overhead_ms"] = (
            layers.mean([s.latency_ms for s in single])
            - outcome.metrics["sharding.search_ms"])
        return outcome

    def _in_process_pool(self, tracer: Tracer, warm: list[Query],
                         sample: list[Query]) -> dict[str, float]:
        """Scatter-gather without HTTP: the sharding layer on its own."""
        repo = SchemaRepository(self.fixture.db)
        started = time.perf_counter()
        engine = ShardedEngine(repo, config=SchemrConfig(
            segment_dir=str(self.fixture.sharded_dir), shards=SHARDS))
        try:
            while not engine.ready():
                time.sleep(0.01)
            pool_start = time.perf_counter() - started
            for query in warm:
                layers.search(engine, query)
            used = total = 0
            for number, query in enumerate(sample):
                with tracer.span("sharding.search", request=number):
                    layers.search(engine, query)
                profile = engine.thread_profile
                used += profile.shards_used
                total += profile.shards_total
            restarts = sum(s["restarts"] for s in engine.shard_status())
        finally:
            engine.close()
            repo.close()
        return {
            "sharding.search_ms": layers.mean(
                tracer.durations_ms("sharding.search")),
            "sharding.pool_start_s": pool_start,
            "sharding.shards_used_ratio": layers.ratio(used, total),
            "sharding.respawns": float(restarts),
        }


class EngineFragmentCold(Workload):
    name = "engine_fragment_cold"

    def setup(self, workdir: Path) -> None:
        fixture = self._build(workdir, flat=True)
        self._timed("engine_open", lambda: self._open_engine(
            workdir, fixture.flat_dir))

    def generate(self) -> None:
        self.queries = inputs.fragment_queries(
            self.fixture.corpus, self.options.seed,
            WARM_FRAGMENT + self._budget(60))

    def measure(self) -> Outcome:
        outcome = Outcome()
        calls = engine_calls(self.engine)
        closed_loop(calls, self.queries[:WARM_FRAGMENT], 1, math.inf)
        timed = self.queries[WARM_FRAGMENT:]
        samples = closed_loop(calls, timed, 1, self.options.seconds)
        outcome.metrics["peak_rss_mb"] = fx.peak_rss_mb(os.getpid())
        with Oracle(self.fixture.db) as oracle:
            failures = oracle.failures(samples, timed)
        _closed_summary(outcome, samples, self.options.seconds, failures)
        if len(samples) == len(timed):
            outcome.notes.append(
                f"the corpus holds only {len(timed)} distinct intents: "
                "the list ran out before the window did")
        return outcome

    def diagnose(self, tracer: Tracer) -> Outcome:
        outcome = Outcome()
        warm = self.queries[:WARM_FRAGMENT]
        sample = self.queries[WARM_FRAGMENT:][
            :int(self.options.seconds * 10)]
        index = SegmentedIndex.open(self.fixture.flat_dir)
        capacity = fx.scaled_profile_capacity(self.fixture.kept)
        parts, pages = layers.decompose(tracer, index, self.repo, capacity,
                                        warm, sample, with_untraced=True)
        outcome.metrics.update(parts)
        outcome.tail(tracer.durations_ms("core.search"))
        with Oracle(self.fixture.db) as oracle:
            wrong = sum(1 for query, results in zip(sample, pages)
                        if page_of(results) != oracle.page(query))
        outcome.attempted += len(sample)
        outcome.failed += wrong
        outcome.metrics["workload.failed_fraction"] = layers.ratio(
            wrong, len(sample))
        ids = [g.schema.schema_id for g in self.fixture.corpus[:100]]
        outcome.metrics.update(layers.cold_fetch(tracer, self.repo, ids))
        outcome.metrics.update(layers.segment_open(self.fixture.flat_dir))
        return outcome


@dataclass
class _IngestRun:
    """What the writer and the reader did in one ingest run."""

    batches: list[Batch]
    refresh_ms: list[float]
    elapsed: float
    reads: list[Sample]
    deleted_at: list[tuple[float, list[int]]]

    @property
    def ops(self) -> int:
        return sum(batch.ops for batch in self.batches)


class IngestUnderRead(Workload):
    name = "ingest_under_read"

    def setup(self, workdir: Path) -> None:
        fixture = self._build(workdir, flat=True)
        self._timed("engine_open", lambda: self._open_engine(
            workdir, fixture.flat_dir))

    def generate(self) -> None:
        self.plan = inputs.crud_plan(self.fixture.corpus, self.options.seed)
        self.queries = inputs.keyword_queries(
            self.fixture.corpus, self.options.seed,
            self._budget(READER_QPS * 2))

    # -- the run -------------------------------------------------------

    @staticmethod
    def _apply(repo: SchemaRepository, batch: Batch) -> float:
        """One batch of CRUD, then refresh; returns the refresh wall."""
        for schema in batch.adds:
            repo.add_schema(schema)
        for schema in batch.updates:
            repo.update_schema(schema)
        for schema_id in batch.deletes:
            repo.delete_schema(schema_id)
        started = time.perf_counter()
        repo.indexer().refresh()
        return (time.perf_counter() - started) * 1e3

    def _run(self, repo: SchemaRepository, engine, plan: list[Batch],
             seconds: float, with_reader: bool) -> _IngestRun:
        """Writer (and reader) until ``seconds`` passed or ``plan`` is
        applied; the batch in progress at the deadline completes."""
        done = threading.Event()
        reads: list[Sample] = []
        reader = None
        if with_reader:
            def read() -> None:
                reads.extend(open_loop(
                    engine_calls(engine), self.queries, READER_QPS,
                    math.inf, stop=done))
            reader = threading.Thread(target=read, daemon=True)
        run = _IngestRun([], [], 0.0, reads, [])
        started = time.perf_counter()
        if reader is not None:
            reader.start()
        try:
            for batch in plan:
                if time.perf_counter() - started >= seconds:
                    break
                run.refresh_ms.append(self._apply(repo, batch))
                run.batches.append(batch)
                run.deleted_at.append((time.perf_counter(), batch.deletes))
            run.elapsed = time.perf_counter() - started
        finally:
            done.set()
            if reader is not None:
                reader.join()
        return run

    def _check_reads(self, outcome: Outcome, run: _IngestRun) -> None:
        """No read failed, and none shows a schema whose delete was
        already searchable when the read was sent."""
        outcome.attempted += len(run.reads)
        for sample in run.reads:
            gone = {schema_id for at, ids in run.deleted_at
                    if at <= sample.start for schema_id in ids}
            if sample.error is not None or any(
                    schema_id in gone for schema_id, _ in sample.result):
                outcome.failed += 1

    def _check_final_state(self, outcome: Outcome, run: _IngestRun,
                           repo: SchemaRepository, engine,
                           segment_dir: Path) -> None:
        index = engine.searcher.index
        added = [s for batch in run.batches for s in batch.adds]
        deleted = {i for batch in run.batches for i in batch.deletes}
        outcome.check(all(index.has_document(s.schema_id) for s in added),
                      "an added schema is not in the index")
        for schema in added[::max(1, len(added) // 20)]:
            terms = list(dict.fromkeys(
                document_from_schema(schema).terms))[:6]
            hits = engine.searcher.search(terms, top_n=index.document_count)
            outcome.check(
                any(hit.doc_id == schema.schema_id for hit in hits),
                f"added schema {schema.schema_id} is not findable")
        outcome.check(not any(index.has_document(i) for i in deleted),
                      "a deleted schema is still in the index")
        with Oracle(repo.path) as oracle:
            for query in self.queries[:30]:
                page = page_of(layers.search(engine, query))
                outcome.check(page == oracle.page(query),
                              f"final page differs for {query.text!r}")
                outcome.check(not any(i in deleted for i, _ in page),
                              f"deleted schema served for {query.text!r}")
        report = verify_directory(segment_dir)
        outcome.check(report.ok, "verify_directory: "
                      + "; ".join(report.lines()[:3]))
        changes = repo.changes_since(0)
        head = changes[-1][0] if changes else 0
        reopened = SegmentedIndex.open(segment_dir)
        outcome.check(
            reopened.last_change_id == repo.indexer().last_change_id == head,
            f"reopen reports change {reopened.last_change_id}, "
            f"repository head is {head}")

    def measure(self) -> Outcome:
        outcome = Outcome()
        run = self._run(self.repo, self.engine, self.plan,
                        self.options.seconds, with_reader=True)
        outcome.metrics["peak_rss_mb"] = fx.peak_rss_mb(os.getpid())
        outcome.attempted += run.ops
        self._check_reads(outcome, run)
        self._check_final_state(outcome, run, self.repo, self.engine,
                                self.fixture.flat_dir)
        outcome.metrics["throughput_qps"] = run.ops / run.elapsed
        outcome.counts["throughput_qps"] = run.ops
        outcome.timing("latency_p50_ms",
                       [s.due_latency_ms for s in run.reads])
        return outcome

    def diagnose(self, tracer: Tracer) -> Outcome:
        outcome = Outcome()
        root = self.fixture.workdir
        # Three runs need the untouched fixture: beside the reader
        # (the original), quiet, and flush/merge driven directly.
        for copy in ("quiet", "direct"):
            (root / copy).mkdir()
            shutil.copy(self.fixture.db, root / copy / "repo.db")
            shutil.copytree(self.fixture.flat_dir,
                            root / copy / "segments")

        index = SegmentedIndex.open(root / "direct" / "segments")
        sample = self.queries[-int(self.options.seconds * 6):]
        parts, _ = layers.decompose(
            tracer, index, self.repo,
            fx.scaled_profile_capacity(self.fixture.kept), [], sample)
        outcome.metrics.update(parts)
        outcome.metrics.update(
            layers.segment_open(root / "direct" / "segments"))

        beside = self._run(self.repo, self.engine, self.plan,
                           self.options.seconds * 0.6, with_reader=True)
        outcome.attempted += beside.ops
        self._check_reads(outcome, beside)
        self._check_final_state(outcome, beside, self.repo, self.engine,
                                self.fixture.flat_dir)
        due = [s.due_latency_ms for s in beside.reads]
        outcome.tail(due)
        outcome.timing("workload.refresh_p50_ms", beside.refresh_ms)
        outcome.metrics["workload.lag_p95_ms"] = percentile(
            sorted(s.lag_ms for s in beside.reads), 95.0) \
            if beside.reads else 0.0
        outcome.metrics["workload.failed_fraction"] = layers.ratio(
            outcome.failed, outcome.attempted)

        plan = beside.batches
        quiet_repo = SchemaRepository(root / "quiet" / "repo.db")
        quiet_repo.profile_store(
            capacity=fx.scaled_profile_capacity(self.fixture.kept))
        quiet_engine = quiet_repo.engine(config=SchemrConfig(
            segment_dir=str(root / "quiet" / "segments")))
        try:
            quiet = self._run(quiet_repo, quiet_engine, plan, math.inf,
                              with_reader=False)
        finally:
            quiet_engine.close()
            quiet_repo.close()
        quiet_rate = layers.ratio(quiet.ops, quiet.elapsed)
        outcome.metrics.update({
            "repository.crud_quiet_ops_per_s": quiet_rate,
            "repository.crud_contended_ratio": layers.ratio(
                quiet_rate, layers.ratio(beside.ops, beside.elapsed)),
            "repository.refresh_ms": layers.mean(quiet.refresh_ms),
        })
        outcome.metrics.update(
            layers.segments(tracer, root / "direct" / "segments", plan))
        return outcome


WORKLOAD_CLASSES = {cls.name: cls for cls in (
    ServeZipfHttp, ServeShardedKw, EngineFragmentCold, IngestUnderRead)}
