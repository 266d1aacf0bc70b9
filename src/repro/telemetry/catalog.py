"""The canonical registry of every ``schemr_*`` metric family.

Instrumentation sites across the codebase resolve instruments by
string name, and the ``/metrics`` exposition, the ``/stats`` summary,
and the DESIGN.md observability docs all refer to the same names.
Nothing ties those call sites together at runtime — a renamed counter
would silently split into two families.  This module is the single
source of truth: every metric name used anywhere in ``src/`` must
appear here exactly once (and vice versa), and the ``metric-catalog``
rule of :mod:`repro.analysis` enforces both directions in CI.

Entries map the metric name to ``(kind, help)`` where ``kind`` is the
Prometheus instrument kind the code must register it as.
"""

from __future__ import annotations

#: name -> (kind, help).  Kinds: "counter" | "gauge" | "histogram".
METRICS: dict[str, tuple[str, str]] = {
    # -- engine: search pipeline --------------------------------------
    "schemr_searches_total": (
        "counter", "Searches executed"),
    "schemr_results_total": (
        "counter", "Results returned"),
    "schemr_search_seconds": (
        "histogram", "End-to-end search latency"),
    "schemr_phase_seconds": (
        "histogram", "Per-phase wall time"),
    "schemr_phase1_candidates": (
        "histogram", "Phase-1 candidates per query"),
    "schemr_phase1_docs_scored_total": (
        "counter", "Documents entering the phase-1 accumulator"),
    "schemr_phase1_pruned_early_total": (
        "counter", "Queries where MaxScore pruning reached AND-mode"),
    "schemr_phase1_queries_total": (
        "counter", "Phase-1 retrievals by strategy and cache outcome"),
    "schemr_slow_queries_total": (
        "counter", "Searches above the slow-query threshold"),
    "schemr_empty_results_total": (
        "counter", "Empty result pages by reason"),
    # -- engine: resilience -------------------------------------------
    "schemr_degraded_searches_total": (
        "counter", "Searches answered below full fidelity, by level"),
    "schemr_deadline_expired_total": (
        "counter", "Searches whose wall-clock budget ran out"),
    "schemr_source_failures_total": (
        "counter", "Candidate fetches the schema source failed"),
    "schemr_breaker_state": (
        "gauge", "Breaker state: 0 closed, 1 half-open, 2 open"),
    "schemr_breaker_opens_total": (
        "counter", "Times a breaker tripped open"),
    # -- index and caches ---------------------------------------------
    "schemr_index_documents": (
        "gauge", "Indexed documents"),
    "schemr_index_terms": (
        "gauge", "Distinct index terms"),
    "schemr_index_generation": (
        "gauge", "Index generation"),
    "schemr_query_cache_hits_total": (
        "counter", "Query-cache hits"),
    "schemr_query_cache_misses_total": (
        "counter", "Query-cache misses"),
    "schemr_query_cache_evictions_total": (
        "counter", "Query-cache LRU evictions"),
    "schemr_query_cache_stale_evictions_total": (
        "counter", "Query-cache stale-generation sweeps"),
    "schemr_query_cache_entries": (
        "gauge", "Query-cache live entries"),
    "schemr_result_cache_hits_total": (
        "counter", "Result-cache hits"),
    "schemr_result_cache_misses_total": (
        "counter", "Result-cache misses"),
    "schemr_result_cache_entries": (
        "gauge", "Result-cache live pages"),
    "schemr_profile_cache_hits_total": (
        "counter", "Profile-cache hits"),
    "schemr_profile_cache_misses_total": (
        "counter", "Profile-cache misses"),
    "schemr_profile_cache_evictions_total": (
        "counter", "Profile-cache LRU evictions"),
    # -- on-disk segments ---------------------------------------------
    "schemr_segment_count": (
        "gauge", "Live mmapped segments"),
    "schemr_segment_mmap_bytes": (
        "gauge", "Bytes memory-mapped across live segments"),
    "schemr_segment_delta_docs": (
        "gauge", "Documents in the in-memory delta segment"),
    "schemr_segment_deleted_docs": (
        "gauge", "Tombstoned documents awaiting a merge"),
    "schemr_segment_merges_total": (
        "counter", "Segment merges completed"),
    "schemr_segment_merged_segments_total": (
        "counter", "Segments rewritten by merges"),
    "schemr_segment_merge_seconds": (
        "histogram", "Segment merge duration"),
    # -- indexer refreshes --------------------------------------------
    "schemr_indexer_refreshes_total": (
        "counter", "Indexer refresh batches applied"),
    "schemr_indexer_ops_applied_total": (
        "counter", "Index operations applied by refreshes"),
    "schemr_indexer_refresh_seconds": (
        "histogram", "Refresh batch duration"),
    "schemr_indexer_publish_seconds": (
        "histogram", "Refresh time spent holding the index lock"),
    "schemr_indexer_batch_size": (
        "histogram", "Operations per refresh batch"),
    "schemr_indexer_generation_bumps_total": (
        "counter", "Refreshes that moved the index generation"),
    "schemr_indexer_refresh_failures_total": (
        "counter", "Scheduled refreshes that raised"),
    # -- process-sharded serving --------------------------------------
    "schemr_shard_up": (
        "gauge", "Whether the shard's worker is serving (1) or not (0)"),
    "schemr_shard_documents": (
        "gauge", "Documents owned by the shard"),
    "schemr_shard_restarts_total": (
        "counter", "Times the shard's worker process was respawned"),
    "schemr_shard_requests_total": (
        "counter", "Worker round-trips completed"),
    "schemr_shard_failures_total": (
        "counter", "Worker round-trips that failed, by kind"),
    "schemr_shard_wait_seconds": (
        "histogram", "Front wait per worker round-trip"),
    "schemr_shard_degraded_merges_total": (
        "counter", "Queries merged without every shard"),
    "schemr_shard_hung_workers_total": (
        "counter", "Workers terminated because they stopped answering"),
    # -- replication --------------------------------------------------
    "schemr_replica_lag_seconds": (
        "gauge", "Seconds since the replica last confirmed sync"),
    "schemr_replica_lag_operations": (
        "gauge", "Change-log operations the replica trails by"),
    "schemr_replica_generation": (
        "gauge", "Change-log cursor the replica serves"),
    "schemr_replica_syncs_total": (
        "counter", "Replica sync cycles by outcome"),
    "schemr_replica_pulled_segments_total": (
        "counter", "Segment files pulled from the primary"),
    "schemr_replica_pulled_bytes_total": (
        "counter", "Segment bytes pulled from the primary"),
    # -- HTTP service -------------------------------------------------
    "schemr_http_requests_total": (
        "counter", "HTTP requests by route and status"),
    "schemr_http_request_seconds": (
        "histogram", "HTTP request latency by route"),
    "schemr_admission_active": (
        "gauge", "Searches currently admitted"),
    "schemr_admission_waiting": (
        "gauge", "Searches queued for admission"),
    "schemr_admission_rejected_total": (
        "counter", "Searches shed by admission control"),
    "schemr_admission_timeouts_total": (
        "counter", "Admissions that timed out in the queue"),
    "schemr_server_stop_hangs_total": (
        "counter", "stop() calls whose serve thread failed to exit"),
    # -- workload replay ----------------------------------------------
    "schemr_workload_sessions_total": (
        "counter", "Sessions replayed"),
    "schemr_workload_queries_total": (
        "counter", "Replay queries issued"),
    "schemr_workload_clicks_total": (
        "counter", "Synthetic clicks recorded"),
    "schemr_workload_shed_total": (
        "counter", "Replay queries shed by admission control"),
    "schemr_workload_errors_total": (
        "counter", "Replay queries that failed"),
    "schemr_workload_request_seconds": (
        "histogram", "Replay request latency"),
    "schemr_workload_lag_seconds": (
        "histogram", "Open-loop dispatch lag behind the arrival schedule"),
    # -- lock-order sanitizer (test-only instrumentation) -------------
    "schemr_sanitizer_locks_wrapped": (
        "gauge", "Project locks wrapped by the lock-order sanitizer"),
    "schemr_sanitizer_order_edges": (
        "gauge", "Distinct lock-acquisition-order edges observed"),
    "schemr_sanitizer_inversions_total": (
        "counter", "Lock-order inversions detected at runtime"),
}


def metric_names() -> tuple[str, ...]:
    """Every canonical metric name, in catalog order."""
    return tuple(METRICS)


def metric_kind(name: str) -> str:
    """The instrument kind ``name`` must be registered as."""
    return METRICS[name][0]


def metric_help(name: str) -> str:
    """The canonical help string for ``name``."""
    return METRICS[name][1]
