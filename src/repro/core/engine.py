"""The Schemr search engine: one query lifecycle over an executor port.

:class:`SchemrEngine` owns everything about a query that does not
depend on *where* the phases run — validation, the deadline, the
degradation ladder, the final sort and page, the phase-1 fallback,
the finished-page result cache, the
:class:`~repro.telemetry.QueryProfile` and telemetry.  The three
phases of Figure 3 execute behind :class:`SearchExecutor`:
:class:`InProcessExecutor` here, the scatter-gather pool of
:mod:`repro.sharding` for ``--shards N``.
"""

from __future__ import annotations

import logging
import threading
import time

from dataclasses import dataclass
from typing import Callable, Iterable, Protocol

from repro.core.config import SchemrConfig
from repro.core.pipeline import (
    ALL_PHASES,
    PHASE_CANDIDATES,
    PHASE_MATCHING,
    PHASE_PARSE,
    PHASE_TIGHTNESS,
)
from repro.core.results import ElementMatch, SearchResult
from repro.errors import IndexError_, QueryError
from repro.index.cache import QueryCache
from repro.index.inverted import InvertedIndex
from repro.index.records import RecordKeys
from repro.index.searcher import IndexHit, IndexSearcher, SearchStats
from repro.matching.base import ColumnMatcher, MatchKeys
from repro.matching.ensemble import MatcherEnsemble
from repro.matching.profile import MatchScratch, ProfileStore
from repro.model.query import QueryGraph
from repro.model.schema import Schema
from repro.errors import (CircuitOpenError, DeadlineExceeded, SchemaError,
                          SchemaNotFound)
from repro.parsers.query_parser import parse_query
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.deadline import (
    DEGRADE_NAME_ONLY,
    DEGRADE_NONE,
    DEGRADE_PHASE1_ONLY,
    DEGRADE_REDUCED_POOL,
    Deadline,
    DegradationLadder,
    degradation_name,
)
from repro.resilience.faults import FAULTS
from repro.resilience.guards import GuardedEnsemble
from repro.scoring.tightness import TightnessScorer
from repro.telemetry import (
    DEFAULT_COUNT_BUCKETS,
    EMPTY_ALL_FILTERED,
    EMPTY_NO_INDEX_HITS,
    EMPTY_OFFSET_BEYOND,
    MetricsRegistry,
    QueryProfile,
    Telemetry,
)

logger = logging.getLogger(__name__)


def served_payload(view, schema_id: int) -> bytes | memoryview:
    """The stored payload of ``schema_id`` in ``view`` (an index view,
    or an index: its current one); :class:`SchemaNotFound` when that
    generation does not hold it."""
    try:
        return view.document(schema_id).payload
    except IndexError_:
        raise SchemaNotFound(
            f"schema {schema_id} is not in the served index "
            "generation") from None


def breaker_trouble(breakers: Iterable[CircuitBreaker]) -> int:
    """Failures plus refusals ever recorded by ``breakers``.

    Both counters only grow, so a run during which the total did not
    move had no matcher or schema fetch fail — how the in-process
    executor and each shard worker tell a full-fidelity page.
    """
    return sum(breaker.failure_count + breaker.rejected_count
               for breaker in breakers)


@dataclass(slots=True)
class Phase1Stats:
    """How phase 1 was answered, as the profile reports it."""

    strategy: str = ""
    cache_hit: bool = False
    pruned_early: bool = False
    docs_scored: int = 0
    #: Shards in the serving pool (0 = in-process).
    shards_total: int = 0
    #: Shards that answered; an executor may keep lowering this through
    #: :meth:`SearchExecutor.match` — the engine reads it at the end.
    shards_used: int = 0
    #: No matcher or schema fetch failed (or was refused) during the
    #: run; lowered by :meth:`SearchExecutor.match` like
    #: ``shards_used``.  Only clean pages enter the result cache.
    clean: bool = True

    def adopt(self, stats: SearchStats) -> None:
        """Take over what a local :class:`IndexSearcher` run reported."""
        self.strategy = stats.strategy
        self.cache_hit = stats.cache_hit
        self.pruned_early = stats.pruned_early
        self.docs_scored = stats.docs_scored


@dataclass(frozen=True, slots=True)
class _CachedPage:
    """One finished page plus the profile fields a hit replays."""

    results: tuple[SearchResult, ...]
    query_terms: tuple[str, ...]
    candidate_count: int
    matched_count: int
    shards: int


def _raw_query(keywords: object, fragment: object) -> tuple | None:
    """The search input as given, hashable; None when a part is not
    plain text (a :class:`Schema` fragment), which is never cached."""
    raw: list[object] = []
    for part in (keywords, fragment):
        if part is None or isinstance(part, str):
            raw.append(part)
        elif (isinstance(part, (list, tuple))
              and all(isinstance(item, str) for item in part)):
            raw.append(tuple(part))
        else:
            return None
    return tuple(raw)


class SearchExecutor(Protocol):
    """Where the three phases execute; the engine owns the rest.

    Executors that serve an index also expose ``searcher``,
    ``breakers`` and ``close()``; the lifecycle itself needs only the
    four methods below.  A search pins one :meth:`view` and
    hands it to both phases, so a refresh landing mid-search changes
    nothing the search reads.  An executor whose :meth:`score` defers
    the per-element drill-in (``SearchResult.element_matches``) also
    exposes ``materialise(results, matched)``, which the engine calls
    for the page only.
    """

    def view(self):  # pragma: no cover
        """The index view a search pins (its generation stamps the
        result cache and its cursor the response)."""
        ...

    def candidates(self, flattened: list[str], pool_n: int,
                   deadline: Deadline, view
                   ) -> tuple[list[IndexHit], Phase1Stats]:  # pragma: no cover
        """Phase 1 in ``view``: the ``pool_n`` best index hits, and how
        they were found."""
        ...

    def match(self, query: QueryGraph, pool: list[IndexHit],
              deadline: Deadline, cheap_only: bool,
              view) -> list:  # pragma: no cover
        """Phase 2 over ``pool``, reading ``view``; survivors **in pool
        order**.

        Raises :class:`DeadlineExceeded` when the budget dies mid-pool
        and :class:`CircuitOpenError` when the schema source failed for
        every candidate (or its breaker is open).  Lowers the calling
        thread's :attr:`Phase1Stats.clean` when anything failed."""
        ...

    def score(self, matched: list) -> list[SearchResult]:  # pragma: no cover
        """Phase 3: one unsorted result per matched candidate."""
        ...


def build_searcher(index: InvertedIndex,
                   config: SchemrConfig) -> IndexSearcher:
    """The phase-1 searcher ``config`` asks for (fuzzy, query cache)."""
    fuzzy = None
    if config.use_fuzzy_expansion:
        from repro.index.fuzzy import TrigramIndex
        fuzzy = TrigramIndex.from_terms(index.vocabulary())
    query_cache = None
    if config.query_cache_size > 0:
        query_cache = QueryCache(config.query_cache_size)
    return IndexSearcher(index, use_coordination=config.use_coordination,
                         fuzzy=fuzzy, query_cache=query_cache)


class SchemrEngine:
    """Executes the three-phase schema search of Figure 3.

    Parameters
    ----------
    index:
        The inverted index over the schema corpus — the whole read
        state: phases two and three score each candidate from the match
        record its document carries, and decode no payload.
    source:
        The :class:`~repro.matching.profile.ProfileStore` that
        :meth:`schema` decodes served payloads through (by-id reads,
        cached by payload); a fresh one (default capacity) when
        omitted.  The search path reads no profile cache.
    ensemble:
        Fine-grained matcher ensemble; defaults to the paper's
        name + context pair with uniform weights.
    config:
        Pipeline knobs; see :class:`SchemrConfig`.
    telemetry:
        Shared :class:`~repro.telemetry.Telemetry` facade; built from
        ``config`` when omitted.  Disabled telemetry costs a handful of
        no-op calls per query.
    executor:
        Where the phases run; defaults to an :class:`InProcessExecutor`
        over ``index``/``ensemble`` (``index`` is then required).
    owns_telemetry:
        Whether :meth:`close` also closes ``telemetry``; defaults to
        "only when the engine built it".
    """

    def __init__(self, index: InvertedIndex | None = None,
                 source: ProfileStore | None = None,
                 ensemble: MatcherEnsemble | None = None,
                 config: SchemrConfig | None = None,
                 telemetry: Telemetry | None = None,
                 clock: Callable[[], float] | None = None, *,
                 executor: SearchExecutor | None = None,
                 owns_telemetry: bool | None = None) -> None:
        self._config = config or SchemrConfig()
        #: Monotonic clock for deadlines and breakers — injectable so
        #: the chaos suite advances time without sleeping.
        self._clock = clock or time.monotonic
        self._owns_telemetry = (telemetry is None if owns_telemetry is None
                                else owns_telemetry)
        self._telemetry = telemetry or Telemetry.from_config(self._config)
        self._executor = executor or InProcessExecutor(
            index, ensemble, self._config, self._clock,
            self._telemetry.metrics)
        self._materialise = getattr(self._executor, "materialise", None)
        self._schemas = source if source is not None else ProfileStore()
        # The finished-page cache needs an index generation to stamp
        # its entries with, so an executor without a searcher gets none.
        size = self._config.query_cache_size
        self._pages = (QueryCache(size) if size > 0 and hasattr(
            self._executor, "searcher") else None)
        self._pages_stamp: tuple | None = None
        self._ladder = DegradationLadder()
        #: The :class:`QueryProfile` of the most recent search —
        #: populated whether or not telemetry is enabled, so callers can
        #: always see *why* a query came back empty.
        self.last_profile: QueryProfile | None = None
        # Per-thread copy of the same, for concurrent callers (the
        # threading HTTP server) that must read *their own* search's
        # profile, not whichever search finished last.
        self._thread_profile = threading.local()
        self._register_instruments()

    def _register_instruments(self) -> None:
        """Resolve hot-path instruments once and wire callback gauges.

        On a disabled registry every instrument is a shared no-op, so
        the per-query cost of the disabled path is the calls themselves.
        Cache and index statistics are exported as callbacks evaluated
        at scrape time — the serving path never updates them.
        """
        m = self._telemetry.metrics
        self._m_searches = m.counter(
            "schemr_searches_total", "Searches executed")
        self._m_search_seconds = m.histogram(
            "schemr_search_seconds", "End-to-end search latency")
        self._m_phase = {
            name: m.histogram("schemr_phase_seconds",
                              "Per-phase wall time", phase=name)
            for name in ALL_PHASES
        }
        self._m_candidates = m.histogram(
            "schemr_phase1_candidates", "Phase-1 candidates per query",
            buckets=DEFAULT_COUNT_BUCKETS)
        self._m_results = m.counter(
            "schemr_results_total", "Results returned")
        self._m_docs_scored = m.counter(
            "schemr_phase1_docs_scored_total",
            "Documents entering the phase-1 accumulator")
        self._m_pruned_early = m.counter(
            "schemr_phase1_pruned_early_total",
            "Queries where MaxScore pruning reached AND-mode")
        self._m_slow = m.counter(
            "schemr_slow_queries_total",
            "Searches above the slow-query threshold")
        self._m_degraded = {
            level: m.counter("schemr_degraded_searches_total",
                             "Searches answered below full fidelity",
                             level=degradation_name(level))
            for level in (DEGRADE_REDUCED_POOL, DEGRADE_NAME_ONLY,
                          DEGRADE_PHASE1_ONLY)
        }
        self._m_deadline_expired = m.counter(
            "schemr_deadline_expired_total",
            "Searches whose wall-clock budget ran out mid-pipeline")
        pages = self._pages
        if m.enabled and pages is not None:
            m.counter("schemr_result_cache_hits_total",
                      "Result-cache hits", callback=lambda: pages.hits)
            m.counter("schemr_result_cache_misses_total",
                      "Result-cache misses", callback=lambda: pages.misses)
            m.gauge("schemr_result_cache_entries",
                    "Result-cache live pages", callback=lambda: len(pages))
        searcher = getattr(self._executor, "searcher", None)
        if not m.enabled or searcher is None:
            return
        index = searcher.index
        m.gauge("schemr_index_documents", "Indexed documents",
                callback=lambda: index.document_count)
        m.gauge("schemr_index_terms", "Distinct index terms",
                callback=lambda: index.term_count)
        m.gauge("schemr_index_generation", "Index generation",
                callback=lambda: index.generation)
        if hasattr(index, "segment_count"):
            # Serving from a SegmentedIndex: expose the segment
            # topology so operators can watch flushes and merges.
            m.gauge("schemr_segment_count", "Live mmapped segments",
                    callback=lambda: index.segment_count)
            m.gauge("schemr_segment_mmap_bytes",
                    "Bytes memory-mapped across live segments",
                    callback=lambda: index.mmap_bytes)
            m.gauge("schemr_segment_delta_docs",
                    "Documents in the in-memory delta segment",
                    callback=lambda: index.delta_document_count)
            m.gauge("schemr_segment_deleted_docs",
                    "Tombstoned documents awaiting a merge",
                    callback=lambda: index.deleted_count)
        cache = searcher.query_cache
        if cache is not None:
            m.counter("schemr_query_cache_hits_total",
                      "Query-cache hits", callback=lambda: cache.hits)
            m.counter("schemr_query_cache_misses_total",
                      "Query-cache misses",
                      callback=lambda: cache.misses)
            m.counter("schemr_query_cache_evictions_total",
                      "Query-cache LRU evictions",
                      callback=lambda: cache.evictions)
            m.counter("schemr_query_cache_stale_evictions_total",
                      "Query-cache stale-generation sweeps",
                      callback=lambda: cache.stale_evictions)
            m.gauge("schemr_query_cache_entries",
                    "Query-cache live entries",
                    callback=lambda: len(cache))
        for name, breaker in self.breakers.items():
            m.gauge("schemr_breaker_state",
                    "Breaker state: 0 closed, 1 half-open, 2 open",
                    callback=lambda b=breaker: b.state_code,
                    breaker=name)
            m.counter("schemr_breaker_opens_total",
                      "Times a breaker tripped open",
                      callback=lambda b=breaker: b.open_count,
                      breaker=name)

    @property
    def ensemble(self) -> MatcherEnsemble | None:
        """The matcher ensemble phases 2-3 run with, in process only:
        None for a :class:`~repro.sharding.ShardedEngine`, whose
        workers each own theirs."""
        return getattr(self._executor, "ensemble", None)

    @property
    def config(self) -> SchemrConfig:
        return self._config

    @property
    def searcher(self) -> IndexSearcher:
        """The executor's searcher over the whole corpus (suggest)."""
        return self._executor.searcher

    @property
    def result_cache(self) -> QueryCache | None:
        """The finished-page cache (None when ``query_cache_size`` is 0)."""
        return self._pages

    @property
    def telemetry(self) -> Telemetry:
        return self._telemetry

    @property
    def store_breaker(self) -> CircuitBreaker:
        """The breaker around phase 2's per-candidate record read."""
        return self._executor.store_breaker

    def schema(self, schema_id: int) -> Schema:
        """``schema_id`` as the served index generation holds it;
        :class:`SchemaNotFound` when it does not (deleted, or committed
        but not yet refreshed).  The one read that decodes a payload."""
        return self._schemas.lookup(
            schema_id, served_payload(self._executor.view(), schema_id))[0]

    @property
    def breakers(self) -> dict[str, CircuitBreaker]:
        """Every breaker the executor surfaces, keyed by name.

        In process: ``schema_source`` plus one ``matcher.<name>`` entry
        per ensemble matcher.  The readiness probe and the ``/metrics``
        gauges read these.
        """
        return getattr(self._executor, "breakers", {})

    @property
    def thread_profile(self) -> QueryProfile | None:
        """The profile of the *calling thread's* most recent search.

        Unlike :attr:`last_profile` this cannot be clobbered by a
        concurrent search on another thread; the HTTP handlers read it
        to stamp each response with its own degradation level."""
        return getattr(self._thread_profile, "profile", None)

    def close(self) -> None:
        """Release the executor's resources and, when this engine owns
        its telemetry, the history sink (idempotent)."""
        close = getattr(self._executor, "close", None)
        if close is not None:
            close()
        if self._owns_telemetry:
            self._telemetry.close()

    def __enter__(self) -> "SchemrEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- public API ----------------------------------------------------

    def search(self, keywords: str | list[str] | None = None,
               fragment: "str | Schema | list[str | Schema] | None" = None,
               top_n: int = 10, offset: int = 0) -> list[SearchResult]:
        """Search with raw user input (parses the query graph first).

        ``fragment`` accepts DDL/XSD text, a :class:`Schema`, or a list
        of either (the query graph is a forest).  ``offset`` pages
        through the ranking: the user "can ... ask for the next n
        schemas" (offset=top_n gets page two).

        A repeat is answered from the finished-page result cache,
        ahead of parsing, while nothing the page was built from has
        changed: the key is the input as given, ``(top_n, offset)`` and
        the stamp of :meth:`_page_stamp`.  A page is admitted only at
        full fidelity (no degradation, no deadline expiry, every shard
        answered, no matcher or schema fetch failed) and on second
        sight — when its phase-1 ranking was itself a query-cache hit —
        so never-repeated traffic leaves the cache empty.  Searches
        with a :class:`Schema` fragment, and :meth:`search_graph`, are
        never cached.
        """
        started = time.perf_counter()
        profile = QueryProfile()
        deadline = Deadline(self._config.search_budget_seconds,
                            clock=self._clock)
        view = self._executor.view()
        key = self._page_key(keywords, fragment, top_n, offset, view)
        if key is not None:
            cached = self._pages.get(key)
            if cached is not None:
                profile.generation = view.last_change_id
                return self._serve_cached(cached, profile, started,
                                          top_n, offset, deadline)
        with profile.timed_phase(PHASE_PARSE) as phase:
            query = parse_query(keywords=keywords, fragment=fragment)
            phase.items_out = len(query)
        return self._run(query, top_n, offset, profile, deadline, view, key)

    def search_graph(self, query: QueryGraph, top_n: int = 10,
                     offset: int = 0) -> list[SearchResult]:
        """Search with a pre-built query graph."""
        if query.is_empty():
            raise QueryError("query graph is empty")
        deadline = Deadline(self._config.search_budget_seconds,
                            clock=self._clock)
        return self._run(query, top_n, offset, QueryProfile(), deadline,
                         self._executor.view())

    def match_and_score(self, query: QueryGraph, pool: list[IndexHit],
                        deadline: Deadline | None = None,
                        cheap_only: bool = False,
                        view=None) -> list[SearchResult]:
        """Phases 2+3 for an externally supplied candidate pool.

        Returns one :class:`SearchResult` per candidate that survived
        matching, **in pool order, unsorted and unpaged** — the caller
        owns ranking.  This is the per-shard work unit of
        :mod:`repro.sharding`: a scatter-gather front selects the
        global pool, each worker runs its shard's slice through here,
        and the front's engine applies the final sort, so the merged
        page is byte-identical to a single engine's.

        ``view`` is the index view ``pool`` was read from; without one,
        the current view.  Raises exactly what
        :meth:`SearchExecutor.match` does.
        """
        if deadline is None:
            deadline = Deadline(None, clock=self._clock)
        executor = self._executor
        if view is None:
            view = executor.view()
        matched = executor.match(query, pool, deadline, cheap_only, view)
        results = executor.score(matched)
        if self._materialise is not None:
            # The caller pages after merging, so every result ships
            # with its drill-in.
            self._materialise(results, matched)
        return results

    # -- result cache ----------------------------------------------------

    def _page_key(self, keywords: object, fragment: object, top_n: int,
                  offset: int, view) -> tuple | None:
        """The result-cache key of a search; None when it is not cached."""
        if self._pages is None:
            return None
        raw = _raw_query(keywords, fragment)
        if raw is None:
            return None
        stamp = self._page_stamp(view)
        if stamp != self._pages_stamp:
            # The phase-1 cache's sweep: dead stamps never hit again.
            self._pages.evict_stale(stamp)
            self._pages_stamp = stamp
        return (raw, (top_n, offset), stamp)

    def _page_stamp(self, view) -> tuple:
        """Everything a page is built from that can change under it.

        The pinned view's generation — flushes and merges keep it, and
        it carries every candidate's payload — and, in process, the
        ensemble weights.
        """
        stamp: tuple = (view.generation,)
        ensemble = self.ensemble
        if ensemble is not None:
            stamp += (tuple(ensemble.weights.items()),)
        return stamp

    def _serve_cached(self, cached: _CachedPage, profile: QueryProfile,
                      started: float, top_n: int, offset: int,
                      deadline: Deadline) -> list[SearchResult]:
        """A result-cache hit: copies of the stored page, then the same
        bookkeeping a miss gets — minus the phase-1 counters, because
        phase 1 did not run."""
        page = [result.copy() for result in cached.results]
        profile.result_cache_hit = True
        profile.total_seconds = time.perf_counter() - started
        stats = Phase1Stats(shards_total=cached.shards,
                            shards_used=cached.shards)
        self._finish_search(profile, cached.query_terms, stats,
                            cached.candidate_count, cached.matched_count,
                            page, top_n, offset, DEGRADE_NONE, deadline,
                            False)
        return page

    # -- pipeline --------------------------------------------------------

    def _run(self, query: QueryGraph, top_n: int, offset: int,
             profile: QueryProfile, deadline: Deadline, view,
             page_key: tuple | None = None) -> list[SearchResult]:
        """The pipeline over one pinned index ``view``: phase 1, phase
        2's payload reads, the page and its generation all read it."""
        if top_n <= 0:
            raise QueryError(f"top_n must be positive, got {top_n}")
        if offset < 0:
            raise QueryError(f"offset must be >= 0, got {offset}")
        executor = self._executor
        profile.generation = view.last_change_id

        # Phase 1: candidate extraction over the document index.
        with profile.timed_phase(PHASE_CANDIDATES) as phase:
            flattened = query.flatten()
            phase.items_in = len(flattened)
            FAULTS.hit("engine.phase1")
            hits, stats = executor.candidates(
                flattened, self._config.candidate_pool, deadline, view)
            phase.items_out = len(hits)

        # Between phases 1 and 2 the degradation ladder decides how
        # much of the remaining pipeline the budget can afford.
        level = self._ladder.level_for(deadline)
        deadline_expired = deadline.expired()
        page = None
        if level < DEGRADE_PHASE1_ONLY:
            pool = hits
            if level >= DEGRADE_REDUCED_POOL:
                keep = max(top_n + offset, self._config.candidate_pool // 4)
                pool = hits[:keep]
            # A budget that dies inside the scoring loop — or a schema
            # source whose breaker is open — degrades to the phase-1
            # ranking instead of failing the search.
            try:
                # Phase 2: fine-grained matching of each candidate.
                with profile.timed_phase(PHASE_MATCHING) as phase:
                    phase.items_in = len(pool)
                    FAULTS.hit("engine.phase2")
                    matched = executor.match(
                        query, pool, deadline, level >= DEGRADE_NAME_ONLY,
                        view)
                    phase.items_out = len(matched)
                # Phase 3: tightness-of-fit scoring and final ranking.
                with profile.timed_phase(PHASE_TIGHTNESS) as phase:
                    phase.items_in = len(matched)
                    scored = executor.score(matched)
                    scored.sort(
                        key=lambda r: (-r.score, -r.coarse_score, r.name))
                    page = scored[offset:offset + top_n]
                    if self._materialise is not None:
                        self._materialise(page, matched)
                    phase.items_out = len(page)
                matched_count = len(scored)
                deadline_expired = deadline.expired()
            except DeadlineExceeded as exc:
                logger.warning("search degraded to phase-1 ranking: %s", exc)
                level = DEGRADE_PHASE1_ONLY
                deadline_expired = True
            except CircuitOpenError as exc:
                logger.warning("search degraded to phase-1 ranking "
                               "(breaker %s open)", exc.breaker)
                level = DEGRADE_PHASE1_ONLY
                deadline_expired = deadline.expired()
        if page is None:
            page = self._phase1_page(hits, top_n, offset)
            matched_count = len(hits)
        if (page_key is not None and level == DEGRADE_NONE
                and not deadline_expired and stats.clean
                and stats.shards_used == stats.shards_total
                and stats.cache_hit):
            # Full fidelity, on second sight: phase 1 hitting its own
            # cache shows these terms were searched before.
            self._pages.put(page_key, _CachedPage(
                tuple(result.copy() for result in page), tuple(flattened),
                len(hits), matched_count, stats.shards_total))
        self._finish_search(profile, flattened, stats, len(hits),
                            matched_count, page, top_n, offset, level,
                            deadline, deadline_expired)
        logger.debug("search: %d candidate(s) -> %d result(s) in %.4fs",
                     len(hits), len(page), profile.total_seconds)
        return page

    def _phase1_page(self, hits: list[IndexHit], top_n: int,
                     offset: int) -> list[SearchResult]:
        """The ``phase1_only`` fallback: TF/IDF ranking, index data only.

        Built purely from the inverted index (the schema source may be
        the thing that is broken), so entity/attribute counts are
        unknown and the coarse score doubles as the final score.
        """
        return [
            SearchResult(
                schema_id=hit.doc_id,
                name=hit.title,
                score=hit.score,
                match_count=hit.matched_terms,
                entity_count=0,
                attribute_count=0,
                coarse_score=hit.score,
            )
            for hit in hits[offset:offset + top_n]
        ]

    def _finish_search(self, profile: QueryProfile, flattened: Iterable[str],
                       stats: Phase1Stats, candidate_count: int,
                       matched_count: int, results: list[SearchResult],
                       top_n: int, offset: int, level: int,
                       deadline: Deadline, deadline_expired: bool) -> None:
        """Complete the :class:`QueryProfile` and feed the telemetry sinks.

        The profile itself is always filled in (it is how callers learn
        an empty page's reason); metric updates, the slow-query log, and
        the history sink only run with telemetry enabled.  A result-cache
        hit arrives with ``total_seconds`` already set (the lookup's wall
        time) and skips the phase-1 counters.
        """
        if not results:
            if not candidate_count:
                profile.empty_reason = EMPTY_NO_INDEX_HITS
            elif matched_count == 0:
                profile.empty_reason = EMPTY_ALL_FILTERED
            else:
                profile.empty_reason = EMPTY_OFFSET_BEYOND
        profile.query_terms = tuple(flattened)
        if not profile.result_cache_hit:
            profile.total_seconds = sum(profile.phase_seconds.values())
        profile.started_at = (self._telemetry.wall_clock()
                              - profile.total_seconds)
        profile.candidate_count = candidate_count
        profile.matched_count = matched_count
        profile.result_count = len(results)
        profile.top_n = top_n
        profile.offset = offset
        profile.strategy = stats.strategy
        profile.cache_hit = stats.cache_hit
        profile.pruned_early = stats.pruned_early
        profile.docs_scored = stats.docs_scored
        profile.shards_total = stats.shards_total
        profile.shards_used = stats.shards_used
        profile.degradation_level = level
        profile.degradation = degradation_name(level)
        profile.deadline_expired = deadline_expired
        profile.budget_seconds = deadline.budget_seconds
        self.last_profile = profile
        self._thread_profile.profile = profile
        telemetry = self._telemetry
        if not telemetry.enabled:
            return
        self._m_searches.inc()
        if level > 0:
            counter = self._m_degraded.get(level)
            if counter is not None:
                counter.inc()
        if deadline_expired:
            self._m_deadline_expired.inc()
        self._m_search_seconds.observe(profile.total_seconds)
        for name, seconds in profile.phase_seconds.items():
            hist = self._m_phase.get(name)
            if hist is not None:
                hist.observe(seconds)
        self._m_results.inc(profile.result_count)
        if not profile.result_cache_hit:
            self._m_candidates.observe(profile.candidate_count)
            self._m_docs_scored.inc(profile.docs_scored)
            if profile.pruned_early:
                self._m_pruned_early.inc()
            telemetry.metrics.counter(
                "schemr_phase1_queries_total", "Phase-1 retrievals by path",
                strategy=profile.strategy or "unknown",
                cache="hit" if profile.cache_hit else "miss").inc()
        if profile.empty_reason is not None:
            telemetry.metrics.counter(
                "schemr_empty_results_total", "Empty result pages by reason",
                reason=profile.empty_reason).inc()
        if telemetry.profiles.record(profile):
            self._m_slow.inc()
            logger.warning(
                "slow query (%.1f ms >= %.1f ms): terms=%s candidates=%d "
                "results=%d", profile.total_seconds * 1000.0,
                telemetry.profiles.slow_threshold_seconds * 1000.0,
                " ".join(profile.query_terms), profile.candidate_count,
                profile.result_count)
        if telemetry.history is not None:
            telemetry.history.record(profile.query_terms, results,
                                     total_seconds=profile.total_seconds)


class InProcessExecutor:
    """The three phases in this process: index, ensemble, tightness.

    Phase 2 scores each candidate from the match record its document
    carries in the pinned view (:class:`~repro.index.records.RecordKeys`)
    and decodes no payload — unless the ensemble holds a matcher that
    reads the schema itself (one that is not a
    :class:`~repro.matching.base.ColumnMatcher`, e.g. the codebook
    matcher), which then gets the decoded schema.
    """

    def __init__(self, index: InvertedIndex,
                 ensemble: MatcherEnsemble | None, config: SchemrConfig,
                 clock: Callable[[], float],
                 metrics: MetricsRegistry) -> None:
        self._config = config
        self.searcher = build_searcher(index, config)
        self._index = index
        self.ensemble = ensemble or MatcherEnsemble.default()
        self._decodes = not all(isinstance(matcher, ColumnMatcher)
                                for matcher in self.ensemble.matchers)
        self._guard = GuardedEnsemble(
            self.ensemble,
            failure_threshold=config.breaker_failure_threshold,
            reset_seconds=config.breaker_reset_seconds,
            clock=clock)
        self.store_breaker = CircuitBreaker(
            "schema_source",
            failure_threshold=config.breaker_failure_threshold,
            reset_seconds=config.breaker_reset_seconds,
            clock=clock)
        self._tightness = TightnessScorer(config.penalties)
        # The calling thread's in-flight query: candidates() opens its
        # stats, match() pins its view and lowers ``clean`` when a
        # breaker saw trouble.
        self._query = threading.local()
        self._m_source_failures = metrics.counter(
            "schemr_source_failures_total",
            "Candidate fetches the schema source failed")

    def view(self):
        return self._index.view()

    @property
    def breakers(self) -> dict[str, CircuitBreaker]:
        all_breakers = {"schema_source": self.store_breaker}
        all_breakers.update(
            (breaker.name, breaker)
            for breaker in self._guard.breakers.values())
        return all_breakers

    def candidates(self, flattened: list[str], pool_n: int,
                   deadline: Deadline, view
                   ) -> tuple[list[IndexHit], Phase1Stats]:
        searcher = self.searcher
        searcher.sync_fuzzy(view)
        hits = searcher.search(flattened, top_n=pool_n, view=view)
        stats = Phase1Stats()
        stats.adopt(searcher.last_stats)
        self._query.stats = stats
        return hits, stats

    def match(self, query: QueryGraph, pool: list[IndexHit],
              deadline: Deadline, cheap_only: bool, view) -> list:
        breakers = self.breakers.values()
        trouble_before = breaker_trouble(breakers)
        source_failures_before = self.store_breaker.failure_count
        self._query.view = view
        try:
            matched = self._match_candidates(query, pool, deadline,
                                             cheap_only)
        finally:
            self._query.view = None  # an idle thread pins no segments
        if (not matched and pool and self.store_breaker.failure_count
                > source_failures_before):
            # Every candidate's record read failed (but the breaker
            # has not tripped yet): an empty page would misreport a
            # source outage as "nothing matched".
            raise CircuitOpenError(
                "schema source failed for every candidate",
                breaker=self.store_breaker.name)
        if breaker_trouble(breakers) != trouble_before:
            # A matcher or fetch failed (or was refused) somewhere in
            # this pool: the page may be incomplete.  Breakers are
            # shared, so a concurrent search's trouble counts too —
            # conservative, never wrong.
            stats = getattr(self._query, "stats", None)
            if stats is not None:
                stats.clean = False
        return matched

    def score(self, matched: list) -> list[SearchResult]:
        """Ranking fields only: ``element_matches`` stays empty until
        :meth:`materialise` (the engine calls it for the page)."""
        return [
            self._score_candidate(hit.score, candidate, element_scores,
                                  profile)
            for (hit, candidate, _columns, element_scores,
                 profile) in matched
        ]

    def materialise(self, results: list[SearchResult],
                    matched: list) -> None:
        """Fill in ``element_matches`` of ``results`` (a subset of what
        :meth:`score` returned for ``matched``): the only place phase 2
        builds a total-similarity matrix, from the candidate's
        memoised columns."""
        if not results:
            return
        columns_of = {candidate.schema_id: columns
                      for _hit, candidate, columns, _scores, _profile
                      in matched}
        floor = self._config.penalties.match_floor
        for result in results:
            result.element_matches = [
                ElementMatch(query_label=row, element_path=col, score=value)
                for row, col, value in columns_of[result.schema_id]
                .combined().nonzero_pairs(threshold=floor)
            ]

    def _match_candidates(self, query: QueryGraph, hits: list[IndexHit],
                          deadline: Deadline, cheap_only: bool = False):
        """Run the ensemble over every candidate, in phase-1 order.

        One :class:`MatchScratch` is shared by the whole pool — its
        caches memoize pure functions of the query.

        The deadline is consulted before every candidate; an exhausted
        budget raises :class:`DeadlineExceeded`, which the caller turns
        into the phase-1 fallback.  Candidates whose record read fails
        are skipped (counted, breaker-recorded) rather than failing the
        whole search.
        """
        scratch = MatchScratch()
        matched = []
        for hit in hits:
            deadline.check("phase-2 candidate loop")
            entry = self._match_one(query, hit, scratch, cheap_only)
            if entry is not None:
                matched.append(entry)
        return matched

    def _match_one(self, query: QueryGraph, hit: IndexHit,
                   scratch: MatchScratch, cheap_only: bool = False):
        """Score one candidate; None when its record read failed.

        One read of the match record its document carries in the pinned
        view (the one phase 1 searched), behind the ``schema_source``
        circuit breaker: individual failures skip the candidate and
        count against the breaker; an open breaker aborts the whole
        match phase with :class:`CircuitOpenError` so the caller can
        fall back to the phase-1 ranking.
        """
        FAULTS.hit("engine.match_one")
        breaker = self.store_breaker
        if not breaker.allow():
            raise CircuitOpenError(
                "schema source circuit is open",
                breaker=breaker.name, retry_after=breaker.retry_after())
        try:
            keys, candidate = self._read_candidate(hit.doc_id)
        except Exception as exc:
            breaker.record_failure()
            self._m_source_failures.inc()
            logger.warning("schema source failed for candidate %d "
                           "(skipped): %s", hit.doc_id, exc)
            return None
        breaker.record_success()
        columns = self._guard.match(query, candidate, profile=keys,
                                    scratch=scratch, cheap_only=cheap_only)
        return (hit, candidate, columns, columns.element_scores(), keys)

    def _read_candidate(self, doc_id: int
                        ) -> tuple[RecordKeys, RecordKeys | Schema]:
        """The candidate's match keys, from the pinned view's record,
        and what the matchers get as the candidate: the keys again, or
        the decoded schema when a matcher reads the schema itself."""
        FAULTS.hit("index.match_record")
        document = self._query.view.document(doc_id)
        record = document.record
        if record is None:
            raise SchemaError(f"document {doc_id} carries no match record")
        keys = record.keys(doc_id, document.title, document.summary)
        if self._decodes:
            return keys, Schema.from_payload(document.payload)
        return keys, keys

    def _score_candidate(self, coarse_score: float,
                         candidate: RecordKeys | Schema,
                         element_scores: dict[str, float],
                         profile: MatchKeys) -> SearchResult:
        floor = self._config.penalties.match_floor
        matched_scores = {path: value
                          for path, value in element_scores.items()
                          if value > floor}
        if self._config.use_tightness:
            tight = self._tightness.score(
                candidate, element_scores,
                neighborhoods=profile.neighborhood_index(),
                entity_of=profile.entity_of)
            final_score = tight.score
            best_anchor = tight.best_anchor
        else:
            # Ablation path: same aggregation, no structural penalties.
            if matched_scores:
                final_score = sum(matched_scores.values())
                if self._config.penalties.aggregation == "mean":
                    final_score /= len(matched_scores)
            else:
                final_score = 0.0
            best_anchor = None
        assert candidate.schema_id is not None
        return SearchResult(
            schema_id=candidate.schema_id,
            name=candidate.name,
            score=final_score,
            match_count=len(matched_scores),
            entity_count=candidate.entity_count,
            attribute_count=candidate.attribute_count,
            description=candidate.description,
            coarse_score=coarse_score,
            best_anchor=best_anchor,
            element_scores=matched_scores,
        )
