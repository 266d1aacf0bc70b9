"""The benchmark's declared workloads and metrics.

``BENCHMARK.json`` at the repository root is generated from these
tables (:func:`benchmark_json`); a test keeps the two in step.  The
JSON holds only the keys the driver's contract allows, so what each
per-layer metric *should move* lives here and in the README, and is
copied into every results file.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Seconds one run measures; also ``run_seconds`` in BENCHMARK.json.
RUN_SECONDS = 10

WORKLOADS: dict[str, str] = {
    "serve_zipf_http": (
        "Zipf session stream (20% DDL POSTs, 35% reformulations) over "
        "HTTP to `schemr serve`, 2 connections: warm caches, so "
        "service+resilience overhead and the GIL dominate"),
    "serve_sharded_kw": (
        "never-repeated keyword queries over HTTP to `schemr serve "
        "--shards 2`, 2 connections: query cache bypassed; sharding "
        "scatter, IPC, merge and cold index retrieval dominate"),
    "engine_fragment_cold": (
        "in-process engine, 1 thread, distinct keyword+DDL-fragment "
        "queries over a working set larger than the profile cache: "
        "parsers, matching, scoring, repository fetch dominate"),
    "ingest_under_read": (
        "writer applies add/update/delete batches (3:2:1) each followed "
        "by indexer refresh while a 10 qps open-loop reader searches: "
        "repository CRUD, flush/merge and lock stalls dominate"),
}


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    measured_by: str
    moves: str
    #: Workloads whose traced run must produce it; elsewhere it reads 0
    #: ("this workload does not exercise it").
    on: tuple[str, ...] = tuple(WORKLOADS)


END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("throughput_qps", "1/s", "higher", 0.25,
             "closed loop: responses per second in the window's fastest "
             "quarter (upper quartile of 1 s slices; any wrong response "
             "fails the run); on ingest_under_read, CRUD ops applied and "
             "searchable / wall including refreshes (the issue's "
             "ingest_ops_per_s)"),
    EndToEnd("latency_p50_ms", "ms", "lower", 0.25,
             "closed loop: median per-request wall time in the window's "
             "fastest quarter (lower quartile of the 1 s slices' "
             "medians); on ingest_under_read, median reader completion "
             "minus due time (the issue's read_latency_p50_ms)"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10,
             "VmHWM of the serving process plus shard workers (the "
             "harness process for the two in-process workloads)"),
    EndToEnd("setup_s", "s", "lower", 0.25,
             "empty directory to ready-to-measure: corpus, repository "
             "load, segment build, catalog, server or engine start; "
             "median of the set-ups made in one run"),
)


_ZIPF, _SHARDED, _ENGINE, _INGEST = WORKLOADS
_SERVE_ON = (_ZIPF, _SHARDED)
_SERVE = ", ".join(_SERVE_ON)

PER_LAYER: tuple[Layer, ...] = (
    Layer("parsers.parse_ms", "ms", "lower",
          "parse_query(keywords, fragment) per query",
          "latency_p50_ms on engine_fragment_cold; ~0 share on "
          "serve_sharded_kw"),
    Layer("index.prepare_ms", "ms", "lower",
          "IndexSearcher.prepare(flattened) per query",
          "throughput_qps on serve_sharded_kw (front-process time)"),
    Layer("index.search_ms", "ms", "lower",
          "IndexSearcher.search(flattened, top_n=candidate_pool)",
          "throughput_qps on serve_sharded_kw; <=~15% of "
          "engine_fragment_cold; ~0 on serve_zipf_http (cache hits)"),
    Layer("index.docs_scored_per_query", "count", "lower",
          "searcher.last_stats.docs_scored, mean over the sample",
          "same as index.search_ms; repeats exactly for a seed"),
    Layer("index.query_cache_hit_ratio", "ratio", "higher",
          "schemr_query_cache_{hits,misses}_total delta from /metrics "
          "(QueryCache counters for in-process workloads)",
          "latency_p50_ms on serve_zipf_http; ~0 on the cold workloads"),
    Layer("matching.match_score_ms", "ms", "lower",
          "engine.match_and_score(query, pool) per query (phases 2+3)",
          "throughput_qps/latency_p50_ms on engine_fragment_cold "
          "(dominant) and on both serve workloads"),
    Layer("matching.per_candidate_us", "us", "lower",
          "match_score time / pool size",
          "same as matching.match_score_ms"),
    Layer("matching.profile_hit_ratio", "ratio", "higher",
          "ProfileStore hits/(hits+misses) over the replay",
          "latency tail on engine_fragment_cold; ~1 on serve_zipf_http"),
    Layer("matching.profile_miss_ms", "ms", "lower",
          "ProfileStore.get_profile on ids not in the store",
          "latency tail on engine_fragment_cold",
          on=(_ENGINE,)),
    Layer("scoring.tightness_ms", "ms", "lower",
          "TightnessScorer.score recomputed over the matched pool "
          "(a part of matching.match_score_ms, not added to the sum)",
          "latency_p50_ms on engine_fragment_cold"),
    Layer("repository.get_schema_ms", "ms", "lower",
          "SchemaRepository.get_schema on ids no cache holds",
          "latency tail on engine_fragment_cold (via profile misses)",
          on=(_ENGINE,)),
    Layer("repository.crud_quiet_ops_per_s", "1/s", "higher",
          "the same CRUD batches + refresh with no reader",
          "throughput_qps on ingest_under_read",
          on=(_INGEST,)),
    Layer("repository.crud_contended_ratio", "ratio", "lower",
          "quiet CRUD rate / rate beside the reader",
          "throughput_qps on ingest_under_read",
          on=(_INGEST,)),
    Layer("repository.refresh_ms", "ms", "lower",
          "indexer().refresh() per batch, no reader",
          "latency_p50_ms and throughput_qps on ingest_under_read",
          on=(_INGEST,)),
    Layer("segments.flush_ms", "ms", "lower",
          "SegmentedIndex.flush driven directly with the same batches",
          "workload.refresh_p50_ms on ingest_under_read; no serve "
          "workload",
          on=(_INGEST,)),
    Layer("segments.merge_ms", "ms", "lower",
          "SegmentedIndex.maybe_merge(tiered) per merge that ran",
          "workload.refresh_p50_ms, latency_p50_ms on ingest_under_read",
          on=(_INGEST,)),
    Layer("segments.merges", "count", "lower",
          "merges the tiered policy ran over the batches",
          "workload.bytes_written_per_op on ingest_under_read",
          on=(_INGEST,)),
    Layer("segments.bytes_written", "B", "lower",
          "bytes of segment + manifest files created by flush/merge",
          "workload.bytes_written_per_op on ingest_under_read",
          on=(_INGEST,)),
    Layer("segments.final_segment_count", "count", "lower",
          "live segments after the last batch",
          "read cost on ingest_under_read (more segments, slower reads)",
          on=(_INGEST,)),
    Layer("segments.open_s", "s", "lower",
          "SegmentedIndex.open on the built directory",
          "setup_s everywhere"),
    Layer("core.search_ms", "ms", "lower",
          "SchemrEngine.search per query, same cache state as the parts",
          "the whole the parts must explain"),
    Layer("core.unattributed_ms", "ms", "lower",
          "SchemrEngine.search - (parse_query + IndexSearcher.search + "
          "match_and_score) per query, median over the sample",
          "check-sum: |value| <= 10% of core.search_ms"),
    Layer("service.serialize_ms", "ms", "lower",
          "results_to_xml on each golden page",
          f"latency_p50_ms, throughput_qps on {_SERVE}",
          on=_SERVE_ON),
    Layer("service.parse_response_ms", "ms", "lower",
          "parse_results_xml on each serialized page (client side)",
          f"latency_p50_ms on {_SERVE}",
          on=_SERVE_ON),
    Layer("service.health_rtt_ms", "ms", "lower",
          "GET /health round trip on a fresh connection",
          "floor of the HTTP stack; workload.paced_latency_p50_ms",
          on=_SERVE_ON),
    Layer("service.http_overhead_ms", "ms", "lower",
          "one-connection HTTP search latency - in-process search "
          "latency (core.search_ms; sharding.search_ms on "
          "serve_sharded_kw) for the same queries",
          "workload.paced_latency_p50_ms and latency_p50_ms on "
          "serve_zipf_http; 0 on engine_fragment_cold",
          on=_SERVE_ON),
    Layer("service.concurrency_penalty_ratio", "ratio", "lower",
          "2-connection closed-loop p50 / 1-connection p50",
          f"latency_p50_ms, throughput_qps on {_SERVE}",
          on=_SERVE_ON),
    Layer("resilience.admission_us", "us", "lower",
          "AdmissionController.admitted() enter+exit, uncontended",
          f"latency_p50_ms on {_SERVE}",
          on=_SERVE_ON),
    Layer("resilience.shed_fraction", "ratio", "lower",
          "schemr_admission_{rejected,timeouts}_total delta / attempted",
          "failed count on both serve workloads (expected 0 at 2 "
          "connections: admission shedding is out of reach here)",
          on=_SERVE_ON),
    Layer("resilience.degraded_fraction", "ratio", "lower",
          "responses whose degradation attribute is not 'none'",
          "failed count on both serve workloads (expected 0)",
          on=_SERVE_ON),
    Layer("sharding.search_ms", "ms", "lower",
          "in-process ShardedEngine.search, 1 thread",
          "latency_p50_ms on serve_sharded_kw only",
          on=(_SHARDED,)),
    Layer("sharding.tax_ratio", "ratio", "lower",
          "sharding.search_ms / core.search_ms on the same queries",
          "latency_p50_ms on serve_sharded_kw only",
          on=(_SHARDED,)),
    Layer("sharding.pool_start_s", "s", "lower",
          "ShardedEngine construction until ready()",
          "setup_s on serve_sharded_kw",
          on=(_SHARDED,)),
    Layer("sharding.shards_used_ratio", "ratio", "higher",
          "thread_profile.shards_used / shards_total, mean",
          "failed count and latency tail on serve_sharded_kw",
          on=(_SHARDED,)),
    Layer("sharding.respawns", "count", "lower",
          "schemr_shard_restarts_total on the server + in-process pool "
          "restarts",
          "failed count and latency tail on serve_sharded_kw",
          on=(_SHARDED,)),
    Layer("workload.lag_p95_ms", "ms", "lower",
          "how late the paced generator sent (send - due), p95",
          "validity of the paced numbers",
          on=(_ZIPF, _INGEST)),
    Layer("workload.trace_overhead_ratio", "ratio", "lower",
          "traced / untraced SchemrEngine.search per query, same cache "
          "state, median over the sample",
          "cost of the harness's own tracing",
          on=(_ENGINE,)),
    Layer("workload.paced_latency_p50_ms", "ms", "lower",
          "open loop at 10 qps, completion - due time, median",
          "what one designer sees on serve_zipf_http",
          on=(_ZIPF,)),
    Layer("workload.paced_latency_p90_ms", "ms", "lower",
          "same series, p90 (needs >=100 samples, else 0)",
          "what one designer sees on serve_zipf_http",
          on=(_ZIPF,)),
    Layer("workload.latency_tail_ms", "ms", "lower",
          "highest percentile of the workload's latency series with "
          ">=10 samples beyond it (the issue's latency_p95_ms / "
          "read_latency_p90_ms, demoted: too noisy to bound)",
          "slow shard, profile misses, refresh stalls"),
    Layer("workload.latency_tail_pct", "%", "higher",
          "which percentile workload.latency_tail_ms is",
          "sample size of the tail"),
    Layer("workload.refresh_p50_ms", "ms", "lower",
          "per-batch refresh() wall beside the reader",
          "latency_p50_ms on ingest_under_read",
          on=(_INGEST,)),
    Layer("workload.bytes_written_per_op", "B", "lower",
          "segments.bytes_written / CRUD ops (repeats exactly for a "
          "seed)",
          "space cost traded against read and write cost on "
          "ingest_under_read",
          on=(_INGEST,)),
    Layer("workload.failed_fraction", "ratio", "lower",
          "(errors + 429/503 + oracle mismatches) / attempted",
          "expected 0; any failure also fails the run"),
)


def benchmark_json() -> dict:
    """The exact content of the repository's ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/harness/run.py"],
        "paths": ["benchmarks/harness"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
