"""Engine configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import QueryError
from repro.scoring.tightness import PenaltyPolicy


@dataclass(slots=True)
class SchemrConfig:
    """Tunable knobs of the three-phase pipeline.

    ``candidate_pool`` is the n of the paper's "top n candidate results"
    from phase one — how many schemas survive into fine-grained
    matching.  ``use_coordination`` and ``use_tightness`` exist for the
    E3/E4 ablation benches; with ``use_tightness`` off, ranking falls
    back to the aggregate of per-element max scores without structural
    penalties.

    ``use_fuzzy_expansion`` enables the extension of
    :mod:`repro.index.fuzzy`: abbreviation expansion plus trigram
    suggestion for query terms missing from the term dictionary.  Off by
    default because the paper's phase one does not do this; the E3
    ablation measures its effect on noisy queries.

    ``match_workers`` sets how many threads score candidates in phase
    two.  1 (the default) keeps the phase sequential; above 1 the
    candidate pool is split into contiguous chunks dispatched to a
    thread pool, and the per-chunk results are concatenated in chunk
    order, so the ranking is identical to the sequential one.

    ``query_cache_size`` caps both generation-keyed caches, each at
    that many entries: the phase-1
    :class:`~repro.index.cache.QueryCache` of (analyzed terms, top_n,
    index generation) rankings, so repeated and paged queries skip
    retrieval, and the engine's finished-page result cache, so an exact
    repeat skips all three phases (see
    :meth:`~repro.core.engine.SchemrEngine.search`).  Entries
    self-invalidate when the indexer refreshes because the index
    generation is part of both keys.  0 disables both caches.

    ``telemetry_enabled`` turns on the :mod:`repro.telemetry`
    subsystem: per-phase metrics and spans, query profiles, the
    slow-query log, and (when ``history_path`` is set) the JSONL
    search-history sink.  Off by default — the disabled path is a
    handful of no-op calls per query.  ``slow_query_seconds`` is the
    latency above which a search lands in the slow-query log;
    ``trace_buffer_size`` / ``profile_buffer_size`` bound the in-memory
    rings of recent span trees and query profiles.
    ``history_max_bytes`` bounds the history sink's live JSONL file:
    past it the file rotates to ``<history_path>.1`` (see
    :class:`~repro.telemetry.history.SearchHistorySink`), so a
    million-session replay cannot grow one file without limit.

    ``search_budget_seconds`` arms the :mod:`repro.resilience` layer:
    each search gets a wall-clock :class:`~repro.resilience.Deadline`
    and, under pressure, degrades along the ladder set by the
    ``degrade_*_fraction`` thresholds (remaining-budget fractions at
    which the engine shrinks the phase-2 pool, drops to the name
    matcher, or returns the phase-1 ranking outright).  ``None`` (the
    default) disables budgets entirely.

    ``breaker_failure_threshold`` / ``breaker_reset_seconds`` shape the
    circuit breakers around each matcher and the schema source;
    ``retry_attempts`` / ``retry_base_seconds`` shape the
    backoff-with-jitter retries on transient sqlite lock errors.

    ``max_concurrent_searches`` / ``admission_queue_size`` /
    ``admission_timeout_seconds`` bound the HTTP server's admission
    queue (429 + Retry-After past them); ``request_timeout_seconds``
    is the per-connection socket timeout that keeps a stalled client
    from pinning a serving thread.

    ``segment_dir`` serves the index from an on-disk segment directory
    (:mod:`repro.index.segments`): restart cold start is O(segment
    count) instead of a full postings rebuild, and every indexer
    refresh flushes the in-memory delta durably.  ``merge_policy``
    picks how flushed segments fold back together — ``"tiered"`` (the
    default, Lucene-style size tiers) or ``"none"`` (segments
    accumulate until an explicit rebuild).  ``None`` (the default)
    keeps the index purely in memory.

    ``shards`` > 1 serves searches from a pool of worker *processes*
    over a doc-id-sharded segment layout (:mod:`repro.sharding`) —
    the GIL-escape for CPU-bound phase-1/phase-2 work.  Requires
    ``segment_dir`` (workers mmap their shard) and a file-backed
    repository (workers open their own connections).
    ``shard_timeout_seconds`` bounds how long the scatter-gather front
    waits on one worker round-trip before declaring the shard stalled
    and serving degraded from the survivors.

    ``replicate_from`` turns the server into a read replica: instead of
    indexing locally, it pulls committed segments from the named
    primary (an ``http(s)://`` URL, or a local path for same-host
    tests) into ``segment_dir`` and hot-swaps them in
    (:mod:`repro.replication`).  ``replica_poll_seconds`` is the pull
    cadence; ``max_replica_lag_seconds`` is the staleness past which
    ``/readyz`` answers 503 so load balancers route around a replica
    that has fallen behind.  Requires ``segment_dir`` and is mutually
    exclusive with ``shards`` > 1 (a replica follows whatever layout —
    flat or sharded — the primary publishes).
    """

    candidate_pool: int = 50
    use_coordination: bool = True  # lint: internal (E3/E4 ablation knob)
    use_tightness: bool = True  # lint: internal (E3/E4 ablation knob)
    use_fuzzy_expansion: bool = False  # lint: internal (E3 ablation knob)
    match_workers: int = 1
    query_cache_size: int = 256
    telemetry_enabled: bool = False  # lint: internal (serve always enables)
    slow_query_seconds: float = 0.25
    trace_buffer_size: int = 64  # lint: internal (memory bound, not a tuning knob)
    profile_buffer_size: int = 256  # lint: internal (memory bound, not a tuning knob)
    history_path: str | None = None
    history_max_bytes: int | None = None
    search_budget_seconds: float | None = None
    degrade_reduced_pool_fraction: float = 0.5  # lint: internal (ladder shape; budget is the knob)
    degrade_name_only_fraction: float = 0.25  # lint: internal (ladder shape; budget is the knob)
    degrade_phase1_fraction: float = 0.10  # lint: internal (ladder shape; budget is the knob)
    breaker_failure_threshold: int = 5  # lint: internal (resilience default; chaos suite tunes it)
    breaker_reset_seconds: float = 30.0  # lint: internal (resilience default; chaos suite tunes it)
    retry_attempts: int = 4  # lint: internal (sqlite-lock backoff; not operator-facing)
    retry_base_seconds: float = 0.01  # lint: internal (sqlite-lock backoff; not operator-facing)
    max_concurrent_searches: int = 32
    admission_queue_size: int = 64
    admission_timeout_seconds: float = 0.5
    request_timeout_seconds: float = 30.0
    segment_dir: str | None = None
    merge_policy: str = "tiered"
    shards: int = 1
    shard_timeout_seconds: float = 10.0
    replicate_from: str | None = None
    max_replica_lag_seconds: float = 30.0
    replica_poll_seconds: float = 1.0
    penalties: PenaltyPolicy = field(default_factory=PenaltyPolicy)  # lint: internal (structured policy object, no flat flag)

    def __post_init__(self) -> None:
        if self.candidate_pool <= 0:
            raise QueryError(
                f"candidate_pool must be positive, got {self.candidate_pool}")
        if self.match_workers < 1:
            raise QueryError(
                f"match_workers must be >= 1, got {self.match_workers}")
        if self.query_cache_size < 0:
            raise QueryError(
                f"query_cache_size must be >= 0, got {self.query_cache_size}")
        if self.slow_query_seconds <= 0:
            raise QueryError(
                "slow_query_seconds must be positive, got "
                f"{self.slow_query_seconds}")
        if self.trace_buffer_size < 1:
            raise QueryError(
                "trace_buffer_size must be >= 1, got "
                f"{self.trace_buffer_size}")
        if self.profile_buffer_size < 1:
            raise QueryError(
                "profile_buffer_size must be >= 1, got "
                f"{self.profile_buffer_size}")
        if self.history_max_bytes is not None and self.history_max_bytes < 1:
            raise QueryError(
                "history_max_bytes must be >= 1 or None, got "
                f"{self.history_max_bytes}")
        if (self.search_budget_seconds is not None
                and self.search_budget_seconds <= 0):
            raise QueryError(
                "search_budget_seconds must be positive or None, got "
                f"{self.search_budget_seconds}")
        if not (0.0 < self.degrade_phase1_fraction
                <= self.degrade_name_only_fraction
                <= self.degrade_reduced_pool_fraction < 1.0):
            raise QueryError(
                "degradation fractions must satisfy 0 < phase1 <= "
                "name_only <= reduced_pool < 1, got "
                f"{self.degrade_phase1_fraction}/"
                f"{self.degrade_name_only_fraction}/"
                f"{self.degrade_reduced_pool_fraction}")
        if self.breaker_failure_threshold < 1:
            raise QueryError(
                "breaker_failure_threshold must be >= 1, got "
                f"{self.breaker_failure_threshold}")
        if self.breaker_reset_seconds <= 0:
            raise QueryError(
                "breaker_reset_seconds must be positive, got "
                f"{self.breaker_reset_seconds}")
        if self.retry_attempts < 1:
            raise QueryError(
                f"retry_attempts must be >= 1, got {self.retry_attempts}")
        if self.retry_base_seconds <= 0:
            raise QueryError(
                "retry_base_seconds must be positive, got "
                f"{self.retry_base_seconds}")
        if self.max_concurrent_searches < 1:
            raise QueryError(
                "max_concurrent_searches must be >= 1, got "
                f"{self.max_concurrent_searches}")
        if self.admission_queue_size < 0:
            raise QueryError(
                "admission_queue_size must be >= 0, got "
                f"{self.admission_queue_size}")
        if self.admission_timeout_seconds < 0:
            raise QueryError(
                "admission_timeout_seconds must be >= 0, got "
                f"{self.admission_timeout_seconds}")
        if self.request_timeout_seconds <= 0:
            raise QueryError(
                "request_timeout_seconds must be positive, got "
                f"{self.request_timeout_seconds}")
        if self.merge_policy not in ("tiered", "none"):
            raise QueryError(
                "merge_policy must be 'tiered' or 'none', got "
                f"{self.merge_policy!r}")
        if self.shards < 1:
            raise QueryError(
                f"shards must be >= 1, got {self.shards}")
        if self.shards > 1 and self.segment_dir is None:
            raise QueryError(
                "shards > 1 requires segment_dir (workers mmap their "
                "shard of the segment layout)")
        if self.shard_timeout_seconds <= 0:
            raise QueryError(
                "shard_timeout_seconds must be positive, got "
                f"{self.shard_timeout_seconds}")
        if self.replicate_from is not None:
            if self.segment_dir is None:
                raise QueryError(
                    "replicate_from requires segment_dir (the replica "
                    "commits pulled segments there)")
            if self.shards > 1:
                raise QueryError(
                    "replicate_from is mutually exclusive with shards > 1;"
                    " a replica follows the primary's layout as-is")
        if self.max_replica_lag_seconds <= 0:
            raise QueryError(
                "max_replica_lag_seconds must be positive, got "
                f"{self.max_replica_lag_seconds}")
        if self.replica_poll_seconds <= 0:
            raise QueryError(
                "replica_poll_seconds must be positive, got "
                f"{self.replica_poll_seconds}")
