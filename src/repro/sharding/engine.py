"""The scatter-gather executor: sharded serving with single-engine bytes.

:class:`ShardedEngine` is a :class:`~repro.core.engine.SchemrEngine`
whose phases run behind :class:`ShardExecutor` — in a pool of worker
*processes* (one per shard of the segment layout) so CPU-bound scoring
escapes the GIL.  The query lifecycle (deadline, ladder, final sort,
profile, telemetry) is the engine's own; only this differs:

* **phase 1** — the front :meth:`~repro.index.searcher.IndexSearcher.prepare`-s
  the query once against the *global* corpus statistics and broadcasts
  the prepared form; each worker returns its shard's top-``pool_n``
  and the front merges with the searcher's exact selection key.
  Because shards partition the doc-id space, each shard's local top
  ``pool_n`` is a superset of the global winners living there, so the
  merge equals the single-index ranking exactly.
* **phase 2** — the merged pool is bucketed back to the shards that own
  each candidate; workers run the engine's own
  :meth:`~repro.core.engine.SchemrEngine.match_and_score` and the front
  restores pool order before the engine applies its final stable sort,
  so the page is byte-identical to single-process serving.

Failures never change the bytes, only the latency and the
``shards_used`` stamp on the query profile: when a worker dies, stalls
past ``shard_timeout_seconds``, or errors, the front *repairs locally*
— it re-runs the failed work against its own union index with the same
code and the same floats — respawns the worker, and keeps serving.
Per-shard circuit breakers keep a flapping worker from taxing every
query; they deliberately do **not** surface through :attr:`breakers`,
because a degraded-but-serving pool must stay ready (the per-shard
health is exported via :meth:`shard_status` and the
``schemr_shard_*`` metric families instead).
"""

from __future__ import annotations

import dataclasses
import heapq
import logging
import threading
import time
from typing import Callable

from repro.core.config import SchemrConfig
from repro.core.engine import Phase1Stats, SchemrEngine, build_searcher
from repro.core.results import SearchResult
from repro.errors import CircuitOpenError, DeadlineExceeded, ServiceError
from repro.index.searcher import IndexHit
from repro.index.segments import ShardedSegmentIndex, shard_of
from repro.model.query import QueryGraph
from repro.resilience.breaker import STATE_OPEN
from repro.resilience.deadline import Deadline
from repro.sharding.pool import (
    STATE_DEAD,
    STATE_READY,
    ShardDied,
    ShardError,
    ShardTimeout,
    WorkerPool,
)
from repro.sharding.protocol import TAG_PHASE1, TAG_PHASE2, TAG_REOPEN
from repro.sharding.worker import WorkerSpec
from repro.telemetry import Telemetry

logger = logging.getLogger(__name__)


def _merge_key(hit: IndexHit) -> tuple[float, int]:
    """The phase-1 merge selection key — the same (score, -doc_id)
    ranking ``IndexSearcher._top_hits`` uses, so merged per-shard
    rankings tie-break exactly like the single index."""
    return (hit.score, -hit.doc_id)


@dataclasses.dataclass(slots=True)
class _QueryState(Phase1Stats):
    """One query's phase-1 stats plus its scatter bookkeeping."""

    #: Shards whose worker failed this query (served via local repair).
    failed: set[int] = dataclasses.field(default_factory=set)

    def fail(self, shard_id: int) -> None:
        self.failed.add(shard_id)
        self.shards_used = self.shards_total - len(self.failed)


class ShardExecutor:
    """Phases 1-2 across a pool of shard worker processes.

    Implements :class:`~repro.core.engine.SearchExecutor` over a
    doc-id-sharded segment layout, plus everything that keeps the pool
    honest: epoch sync, failure booking, worker respawn, local repair.
    """

    def __init__(self, repository, config: SchemrConfig,
                 telemetry: Telemetry, clock: Callable[[], float]) -> None:
        if config.segment_dir is None:
            raise ServiceError(
                "sharded serving requires segment_dir (the sharded "
                "segment layout workers mmap)")
        db_path = getattr(repository, "path", ":memory:")
        if db_path == ":memory:":
            raise ServiceError(
                "sharded serving requires a file-backed repository; "
                "workers open their own database connections")
        self._config = config
        self._clock = clock
        self._telemetry = telemetry
        self._repository = repository
        indexer = repository.indexer(
            segment_dir=config.segment_dir,
            merge_policy=config.merge_policy, shards=config.shards)
        if indexer.telemetry is None:
            indexer.telemetry = telemetry
        indexer.refresh()
        index = indexer.index
        if not isinstance(index, ShardedSegmentIndex):
            raise ServiceError(
                f"{config.segment_dir} is not a sharded layout; "
                "rebuild it with shards set (schemr index --shards N)")
        if index.shard_count != config.shards:
            raise ServiceError(
                f"{config.segment_dir} holds "
                f"{index.shard_count} shard(s) but config requests "
                f"{config.shards}; a layout's shard count is "
                "fixed at creation")
        self.index = index
        #: The front's searcher over the union index (prepare, repair,
        #: suggest).
        self.searcher = build_searcher(index, config)
        # Workers run the same pipeline knobs minus everything the
        # front owns: telemetry, history, fuzzy expansion (the prepared
        # query already carries the expansions), budgets (per-request),
        # and of course sharding itself.
        self._worker_config = dataclasses.replace(
            config, telemetry_enabled=False, history_path=None,
            use_fuzzy_expansion=False, match_workers=1, shards=1,
            segment_dir=None, search_budget_seconds=None)
        specs = [
            WorkerSpec(shard_id=i, shard_count=index.shard_count,
                       db_path=db_path, shard_dir=str(shard_dir),
                       config=self._worker_config)
            for i, shard_dir in enumerate(index.shard_dirs)
        ]
        self.pool = WorkerPool(
            specs,
            breaker_failure_threshold=config.breaker_failure_threshold,
            breaker_reset_seconds=config.breaker_reset_seconds,
            clock=clock)
        self._qid_lock = threading.Lock()
        self._next_qid = 1
        self._epoch_lock = threading.Lock()
        self._served_generation = index.generation
        self._reopening = False
        self._fallback_lock = threading.Lock()
        self._fallback_engine: SchemrEngine | None = None
        # The calling thread's in-flight query: candidates() opens it,
        # match() keeps booking shard failures into it.
        self._query = threading.local()
        self._closed = False
        self._register_instruments()

    # -- telemetry wiring ----------------------------------------------

    def _register_instruments(self) -> None:
        """The per-worker view: the ``schemr_shard_*`` families.

        The engine-level families are the engine's own, so dashboards
        work unchanged across executors.
        """
        m = self._telemetry.metrics
        self._m_shard_wait = {
            tag: m.histogram("schemr_shard_wait_seconds",
                             "Front wait per worker round-trip",
                             phase=tag)
            for tag in (TAG_PHASE1, TAG_PHASE2)
        }
        self._m_degraded_merges = m.counter(
            "schemr_shard_degraded_merges_total",
            "Queries merged without every shard (served via local repair)")
        self._m_hung = m.counter(
            "schemr_shard_hung_workers_total",
            "Workers terminated because they stopped answering")
        self._m_shard_requests = {
            sid: m.counter("schemr_shard_requests_total",
                           "Worker round-trips completed", shard=str(sid))
            for sid in range(self.index.shard_count)
        }
        if not m.enabled:
            return
        for sid in range(self.index.shard_count):
            handle = self.pool.workers[sid]
            shard = self.index.shard(sid)
            m.gauge("schemr_shard_up",
                    "Whether the shard's worker is serving (1) or not (0)",
                    callback=lambda h=handle:
                        1.0 if h.state == STATE_READY else 0.0,
                    shard=str(sid))
            m.gauge("schemr_shard_documents",
                    "Documents owned by the shard",
                    callback=lambda s=shard: s.document_count,
                    shard=str(sid))
            m.counter("schemr_shard_restarts_total",
                      "Times the shard's worker process was respawned",
                      callback=lambda h=handle: h.restarts,
                      shard=str(sid))

    def _count_failure(self, shard_id: int, kind: str) -> None:
        self._telemetry.metrics.counter(
            "schemr_shard_failures_total",
            "Worker round-trips that failed, by kind",
            shard=str(shard_id), kind=kind).inc()

    # -- health the server and tests read -------------------------------

    @property
    def breakers(self) -> dict:
        """Engine-level breakers: none.

        The per-shard breakers intentionally do not surface here — the
        readiness probe treats any open engine breaker as not-ready,
        but a pool serving degraded from the survivors (with local
        repair keeping the bytes identical) *is* ready.  Per-shard
        health is exported via :meth:`shard_status` instead.
        """
        return {}

    @property
    def source(self):
        """The front's repository: in-process writes go through it, so
        its ``version`` stamps the engine's result cache."""
        return self._repository

    @property
    def reopening(self) -> bool:  # lint: unlocked (GIL-atomic bool read for readiness reporting)
        """Whether a reopen broadcast is mid-flight (readiness input)."""
        return self._reopening

    def shard_status(self) -> list[dict]:
        """Per-shard health for ``/readyz`` and operators."""
        out = []
        for sid in range(self.index.shard_count):
            handle = self.pool.workers[sid]
            out.append({
                "shard": sid,
                "state": handle.state,
                "pid": handle.pid,
                "restarts": handle.restarts,
                "documents": self.index.shard(sid).document_count,
                "breaker": self.pool.breakers[sid].state,
            })
        return out

    def ready(self, handshake_timeout: float = 0.25) -> bool:
        """Whether the pool is past startup/reopen transitions.

        Opening workers are given a bounded chance to finish their
        handshake (they open in milliseconds).  Dead workers do *not*
        make the engine unready — the front serves their documents via
        local repair until the respawn lands — so this is "no shard is
        mid-transition", not "every shard is healthy".
        """
        if self._reopening:  # lint: unlocked (advisory readiness snapshot)
            return False
        for handle in self.pool.workers:
            if handle.state == "opening":
                if not handle.ensure_ready(handshake_timeout):
                    return False
        return True

    def close(self) -> None:
        """Shut down the worker pool and the repair engine.

        Idempotent.  Workers that do not exit on request are terminated
        and counted as hung (``schemr_shard_hung_workers_total``) —
        the process-pool mirror of the server's hung-serve-thread
        accounting.  No orphans survive: worker processes are daemonic
        *and* explicitly joined here.
        """
        if self._closed:
            return
        self._closed = True
        outcomes = self.pool.shutdown(self._config.shard_timeout_seconds)
        for outcome in outcomes:
            if outcome != "clean":
                self._m_hung.inc()
                logger.warning("shard worker shutdown outcome: %s", outcome)
        with self._fallback_lock:
            fallback = self._fallback_engine
            self._fallback_engine = None
        if fallback is not None:
            fallback.close()

    # -- epoch sync -----------------------------------------------------

    def _sync_epoch(self) -> None:
        """Make the workers' view catch up with the union index.

        The union generation moves only on mutation, so the common case
        is one O(1) integer compare.  On change: flush the union (seals
        every shard's delta durably, preserving the change-log cursor),
        broadcast ``reopen`` so each worker swaps in a fresh mmap of
        its shard, and only then adopt the new generation — a query
        never scatters against workers serving the previous epoch.
        """
        if self.index.generation == self._served_generation:  # lint: unlocked (double-checked fast path; re-read under _epoch_lock below)
            return
        with self._epoch_lock:
            generation = self.index.generation
            if generation == self._served_generation:
                return
            self._reopening = True
            try:
                self.index.flush(
                    last_change_id=self.index.last_change_id)
                self._broadcast_reopen()
                self._served_generation = generation
            finally:
                self._reopening = False

    def _broadcast_reopen(self) -> None:  # lint: unlocked (caller holds self._epoch_lock)
        timeout = self._config.shard_timeout_seconds
        pending: list[tuple[int, int]] = []
        for sid in range(self.index.shard_count):
            handle = self.pool.workers[sid]
            # Opening workers must handshake first so the reopen is not
            # racing their initial manifest read.
            if handle.state == "opening" and not handle.ensure_ready(timeout):
                continue
            if handle.state != STATE_READY:
                continue  # dead/stopped: a respawn opens fresh anyway
            qid = self._qid()
            try:
                handle.send(TAG_REOPEN, qid, None)
            except ShardDied:
                self._count_failure(sid, "send")
                handle.respawn()
                continue
            pending.append((sid, qid))
        for sid, qid in pending:
            handle = self.pool.workers[sid]
            try:
                handle.collect(TAG_REOPEN, qid, timeout)
            except ShardDied:
                self._count_failure(sid, "died")
                handle.respawn()
            except (ShardTimeout, ShardError):
                # A worker that cannot reopen would keep serving the
                # stale epoch; replace it rather than risk torn reads.
                self._count_failure(sid, "timeout")
                self._m_hung.inc()
                handle.respawn()

    # -- scatter plumbing ------------------------------------------------

    def _qid(self) -> int:
        with self._qid_lock:
            qid = self._next_qid
            self._next_qid += 1
            return qid

    def _send(self, tag: str, shard_id: int, payload: dict,
              state: _QueryState) -> int | None:
        """Send one request; its qid, or None with the failure booked."""
        if not self.pool.usable(shard_id,
                                self._config.shard_timeout_seconds):
            self._handle_unusable(shard_id, state)
            return None
        qid = self._qid()
        try:
            self.pool.workers[shard_id].send(tag, qid, payload)
        except ShardDied:
            self._handle_failure(shard_id, "send", state)
            return None
        return qid

    def _collect(self, tag: str, shard_id: int, qid: int | None,
                 deadline: Deadline, state: _QueryState) -> dict | None:
        """One worker's answer; None (failure booked) when there is none."""
        if qid is None:
            return None
        timeout = self._config.shard_timeout_seconds
        if deadline.limited:
            timeout = min(timeout, max(deadline.remaining(), 0.001))
        started = self._clock()
        try:
            payload = self.pool.workers[shard_id].collect(tag, qid, timeout)
        except ShardTimeout:
            self._handle_failure(shard_id, "timeout", state)
        except ShardDied:
            self._handle_failure(shard_id, "died", state)
        except ShardError:
            self._handle_failure(shard_id, "error", state)
        else:
            self.pool.breakers[shard_id].record_success()
            self._m_shard_requests[shard_id].inc()
            self._m_shard_wait[tag].observe(self._clock() - started)
            return payload
        return None

    def _handle_failure(self, shard_id: int, kind: str,
                        state: _QueryState) -> None:
        """Book a worker failure: breaker, metrics, respawn policy."""
        state.fail(shard_id)
        breaker = self.pool.breakers[shard_id]
        breaker.record_failure()
        self._count_failure(shard_id, kind)
        handle = self.pool.workers[shard_id]
        if kind in ("died", "send"):
            handle.respawn()
        elif kind == "timeout" and breaker.state == STATE_OPEN:
            # Enough consecutive stalls to trip the breaker: the worker
            # is wedged, not slow.  Same policy as the server's hung
            # serve-thread check, applied to a process.
            self._m_hung.inc()
            logger.warning("shard %d worker unresponsive; respawning",
                           shard_id)
            handle.respawn()

    def _handle_unusable(self, shard_id: int, state: _QueryState) -> None:
        """A shard excluded at the scatter gate.

        A worker found *dead* here (it died before ever answering —
        e.g. killed while still opening) still gets the died-respawn
        policy; a merely not-ready or breaker-excluded shard is only
        counted, its worker left alone.
        """
        if self.pool.workers[shard_id].state == STATE_DEAD:
            self._handle_failure(shard_id, "died", state)
            return
        state.fail(shard_id)
        self._count_failure(shard_id, "unavailable")

    def _fallback(self) -> SchemrEngine:
        """The local-repair engine over the union index, built lazily.

        Shares the repository's profile store and the worker config, so
        anything it scores produces exactly the floats a worker would
        have — repair changes latency, never bytes.
        """
        with self._fallback_lock:
            if self._fallback_engine is None:
                self._fallback_engine = SchemrEngine(
                    index=self.index,
                    source=self._repository.profile_store(),
                    config=self._worker_config, clock=self._clock)
            return self._fallback_engine

    # -- phase 1: scatter, merge, cache ---------------------------------

    def candidates(self, flattened: list[str], pool_n: int,
                   deadline: Deadline
                   ) -> tuple[list[IndexHit], Phase1Stats]:
        shard_count = self.index.shard_count
        state = _QueryState(shards_total=shard_count,
                            shards_used=shard_count)
        self._query.state = state
        self._sync_epoch()
        searcher = self.searcher
        searcher.sync_fuzzy()
        prepared = searcher.prepare(flattened)
        cache = searcher.query_cache
        key = (prepared, pool_n, self.index.generation)
        if cache is not None:
            hits = cache.get(key)
            if hits is not None:
                state.strategy = searcher.strategy
                state.cache_hit = True
                return hits, state
        request = {"prepared": prepared, "top_n": pool_n}
        sent = [(sid, self._send(TAG_PHASE1, sid, request, state))
                for sid in range(shard_count)]
        responses = [self._collect(TAG_PHASE1, sid, qid, deadline, state)
                     for sid, qid in sent]
        if None in responses:
            # One or more shards missing: repair locally against the
            # union — the exact global ranking, straight from the same
            # searcher that prepared the query (this also caches it).
            self._m_degraded_merges.inc()
            hits = searcher.search_prepared(prepared, top_n=pool_n)
            state.adopt(searcher.last_stats)
            return hits, state
        all_hits: list[IndexHit] = []
        strategies: set[str] = set()
        for payload in responses:
            all_hits.extend(payload["hits"])
            if payload["strategy"]:
                strategies.add(payload["strategy"])
            state.docs_scored += payload["docs_scored"]
            state.pruned_early = state.pruned_early or payload["pruned_early"]
        merged = heapq.nlargest(pool_n, all_hits, key=_merge_key)
        state.strategy = "+".join(sorted(strategies)) or searcher.strategy
        if cache is not None:
            # Only a full-fidelity merge populates the cache (degraded
            # pools repaired locally above).
            cache.put(key, merged)
        return merged, state

    # -- phase 2: bucket, scatter, repair -------------------------------

    def match(self, query: QueryGraph, pool: list[IndexHit],
              deadline: Deadline, cheap_only: bool) -> list[SearchResult]:
        """Phases 2+3 across the workers, restored to pool order.

        Raises exactly what the in-process executor would:
        :class:`DeadlineExceeded` when any shard's budget died mid-pool
        and :class:`CircuitOpenError` when the schema source failed for
        every candidate everywhere.
        """
        shard_count = self.index.shard_count
        state = getattr(self._query, "state", None)
        if state is None:  # match_and_score() without a search
            state = _QueryState(shards_total=shard_count)
        buckets: dict[int, list[IndexHit]] = {}
        for hit in pool:
            buckets.setdefault(shard_of(hit.doc_id, shard_count),
                               []).append(hit)
        budget = deadline.remaining() if deadline.limited else None
        sent = [
            (sid, chunk, self._send(
                TAG_PHASE2, sid,
                {"query": query, "hits": chunk, "budget": budget,
                 "cheap_only": cheap_only}, state))
            for sid, chunk in sorted(buckets.items())
        ]
        results: list[SearchResult] = []
        repair: list[list[IndexHit]] = []
        source_outage = False
        for sid, chunk, qid in sent:
            payload = self._collect(TAG_PHASE2, sid, qid, deadline, state)
            if payload is None:
                repair.append(chunk)
            elif payload["deadline_expired"]:
                raise DeadlineExceeded(
                    f"shard {sid} exhausted the search budget in "
                    "the phase-2 candidate loop")
            elif payload["all_failed"]:
                # The shard's schema fetches all failed (a store
                # outage seen from that process).  Mirror the
                # in-process executor: candidates are skipped, and only
                # a globally empty match raises.
                source_outage = True
                state.clean = False
            else:
                results.extend(payload["results"])
                if not payload["clean"]:
                    state.clean = False
        if repair:
            self._m_degraded_merges.inc()
            fallback = self._fallback()
            for chunk in repair:
                try:
                    results.extend(fallback.match_and_score(
                        query, chunk, deadline, cheap_only=cheap_only))
                except CircuitOpenError:
                    source_outage = True
        if not results and pool and source_outage:
            raise CircuitOpenError(
                "schema source failed for every candidate",
                breaker="schema_source")
        # Pool order is what an in-process matcher emits; the engine's
        # stable final sort then yields single-process bytes.
        position = {hit.doc_id: i for i, hit in enumerate(pool)}
        results.sort(key=lambda r: position[r.schema_id])
        return results

    def score(self, matched: list[SearchResult]) -> list[SearchResult]:
        """Identity: workers already ran tightness on their buckets."""
        return matched


class ShardedEngine(SchemrEngine):
    """Process-sharded serving over a doc-id-sharded segment layout.

    The one query lifecycle of :class:`SchemrEngine`, executed by a
    :class:`ShardExecutor`.

    Parameters
    ----------
    repository:
        A **file-backed** :class:`~repro.repository.store.SchemaRepository`
        — each worker opens its own sqlite connection (WAL mode makes
        that multi-process safe), so ``:memory:`` repositories cannot
        shard.
    config:
        Must carry ``segment_dir`` (the sharded layout root) and the
        ``shards`` count; ``shard_timeout_seconds`` bounds every worker
        round-trip.
    telemetry:
        Shared facade; built from ``config`` (and then owned) when
        omitted.  Workers run with telemetry disabled — the front owns
        every metric.
    clock:
        Injectable monotonic clock for deadlines and breakers.
    """

    def __init__(self, repository, config: SchemrConfig | None = None,
                 telemetry: Telemetry | None = None,
                 clock: Callable[[], float] | None = None) -> None:
        config = config or SchemrConfig()
        owned = telemetry is None
        telemetry = telemetry or Telemetry.from_config(config)
        clock = clock or time.monotonic
        try:
            executor = ShardExecutor(repository, config, telemetry, clock)
        except BaseException:
            if owned:
                telemetry.close()
            raise
        super().__init__(config=config, telemetry=telemetry, clock=clock,
                         executor=executor, owns_telemetry=owned)

    @property
    def index(self) -> ShardedSegmentIndex:
        return self._executor.index

    @property
    def pool(self) -> WorkerPool:
        return self._executor.pool

    @property
    def reopening(self) -> bool:
        """Whether a reopen broadcast is mid-flight (readiness input)."""
        return self._executor.reopening

    def shard_status(self) -> list[dict]:
        """Per-shard health for ``/readyz`` and operators."""
        return self._executor.shard_status()

    def ready(self, handshake_timeout: float = 0.25) -> bool:
        """Whether the pool is past startup/reopen transitions."""
        return self._executor.ready(handshake_timeout)
