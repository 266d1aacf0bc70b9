"""Per-search :class:`QueryProfile` records and the slow-query log.

Every search the engine runs produces one profile: what the query was,
how long each phase took, how many candidates flowed through, whether
phase 1 was answered from cache or pruned early, and — when the result
list came back empty — *why* it was empty, so "no such schema exists"
is distinguishable from "you paged past the end".

:class:`QueryProfileLog` retains a bounded ring of recent profiles plus
a second ring of profiles that crossed the slow-query latency
threshold; both are what the ``/stats`` endpoint and ``schemr stats``
render.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

#: ``QueryProfile.empty_reason`` values.
EMPTY_NO_INDEX_HITS = "no_index_hits"
EMPTY_ALL_FILTERED = "all_candidates_filtered"
EMPTY_OFFSET_BEYOND = "offset_beyond_results"


@dataclass(slots=True)
class QueryProfile:
    """Everything observable about one search invocation."""

    #: The analyzed/flattened query terms phase 1 actually ran.
    query_terms: tuple[str, ...] = ()
    started_at: float = 0.0  # wall clock
    total_seconds: float = 0.0
    #: phase name -> wall seconds, in execution order (Figure 3).
    phase_seconds: dict[str, float] = field(default_factory=dict)
    #: phase name -> (items in, items out): the Figure 3 data flow.
    phase_items: dict[str, tuple[int, int]] = field(default_factory=dict)
    #: Phase-1 candidates entering the match phase.
    candidate_count: int = 0
    #: Candidates surviving fine-grained matching (pre-paging).
    matched_count: int = 0
    #: Results actually returned (post offset/top_n paging).
    result_count: int = 0
    top_n: int = 0
    offset: int = 0
    #: Phase-1 retrieval strategy that executed ("naive"/"packed"/
    #: "pruned"), or "cache" semantics via ``cache_hit``.
    strategy: str = ""
    #: Whether phase 1 was answered from the QueryCache.
    cache_hit: bool = False
    #: Whether MaxScore pruning reached AND-mode (stopped admitting
    #: new accumulator docs) during phase 1.
    pruned_early: bool = False
    #: Documents that entered the phase-1 accumulator.
    docs_scored: int = 0
    #: Why the result list is empty (None when it is not):
    #: ``no_index_hits`` — phase 1 found nothing; ``offset_beyond_results``
    #: — the ranking exists but the requested page is past its end;
    #: ``all_candidates_filtered`` — candidates were found but none
    #: survived matching.
    empty_reason: str | None = None
    #: Graceful-degradation level the response was produced at
    #: (see :mod:`repro.resilience.deadline`): 0 full pipeline,
    #: 1 reduced candidate pool, 2 name-matcher-only ensemble,
    #: 3 phase-1 TF/IDF ranking returned outright.
    degradation_level: int = 0
    #: The level's machine-readable name ("none", "reduced_pool",
    #: "name_only", "phase1_only").
    degradation: str = "none"
    #: Whether the search's wall-clock budget ran out mid-pipeline
    #: (forcing the phase-1 fallback regardless of the ladder).
    deadline_expired: bool = False
    #: The budget this search ran under (None = unlimited).
    budget_seconds: float | None = None
    #: Shards in the serving pool (0 = single-process engine).
    shards_total: int = 0
    #: Shards that answered this search; below ``shards_total`` means
    #: the page was served degraded from the survivors.
    shards_used: int = 0
    #: Whether the engine's result cache served the finished page: no
    #: phase ran, and ``total_seconds`` is the lookup's wall time.
    result_cache_hit: bool = False
    #: The change-log cursor of the index view the page was read from
    #: (None for an index that records none, the in-memory one).
    generation: int | None = None

    def timed_phase(self, name: str) -> "_PhaseTimer":
        """Record a phase: ``with profile.timed_phase(name) as ph:``.

        The block's wall time lands in :attr:`phase_seconds` (also when
        it raises) and the ``items_in``/``items_out`` it sets on ``ph``
        in :attr:`phase_items`.
        """
        return _PhaseTimer(self, name)

    def summary(self) -> str:
        """Human-readable data-flow table (the Figure 3 rendition), led
        by the result-cache outcome; a hit ran no phase, so its total
        is the lookup's wall time."""
        outcome = "hit" if self.result_cache_hit else "miss"
        lines = [f"{'phase':<22} {'in':>8} {'out':>8} {'seconds':>10}",
                 f"{'result_cache':<22} {outcome:>8}"]
        for name, seconds in self.phase_seconds.items():
            items_in, items_out = self.phase_items[name]
            lines.append(f"{name:<22} {items_in:>8} {items_out:>8} "
                         f"{seconds:>10.5f}")
        total = (self.total_seconds if self.result_cache_hit
                 else sum(self.phase_seconds.values()))
        lines.append(f"{'total':<22} {'':>8} {'':>8} {total:>10.5f}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-safe form (history sink, ``/stats``, logs)."""
        return {
            "query_terms": list(self.query_terms),
            "started_at": self.started_at,
            "total_seconds": self.total_seconds,
            "phase_seconds": dict(self.phase_seconds),
            "candidate_count": self.candidate_count,
            "matched_count": self.matched_count,
            "result_count": self.result_count,
            "top_n": self.top_n,
            "offset": self.offset,
            "strategy": self.strategy,
            "cache_hit": self.cache_hit,
            "pruned_early": self.pruned_early,
            "docs_scored": self.docs_scored,
            "empty_reason": self.empty_reason,
            "degradation_level": self.degradation_level,
            "degradation": self.degradation,
            "deadline_expired": self.deadline_expired,
            "budget_seconds": self.budget_seconds,
            "shards_total": self.shards_total,
            "shards_used": self.shards_used,
            "result_cache_hit": self.result_cache_hit,
        }


class _PhaseTimer:
    """Context manager timing one phase into a :class:`QueryProfile`."""

    __slots__ = ("_profile", "_name", "_start", "items_in", "items_out")

    def __init__(self, profile: QueryProfile, name: str) -> None:
        self._profile = profile
        self._name = name
        self._start = 0.0
        self.items_in = 0
        self.items_out = 0

    def __enter__(self) -> "_PhaseTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        profile = self._profile
        profile.phase_seconds[self._name] = time.perf_counter() - self._start
        profile.phase_items[self._name] = (self.items_in, self.items_out)


class QueryProfileLog:
    """Bounded rings of recent and slow query profiles.

    ``slow_threshold_seconds`` is the latency above which a profile is
    additionally retained in the slow ring and counted; the engine
    mirrors that count into the ``schemr_slow_queries_total`` metric.
    """

    def __init__(self, buffer_size: int = 256,
                 slow_threshold_seconds: float = 0.25) -> None:
        if buffer_size < 1:
            raise ValueError(f"buffer_size must be >= 1, got {buffer_size}")
        if slow_threshold_seconds <= 0:
            raise ValueError(
                "slow_threshold_seconds must be positive, got "
                f"{slow_threshold_seconds}")
        self._lock = threading.Lock()
        self._recent: deque[QueryProfile] = deque(maxlen=buffer_size)
        self._slow: deque[QueryProfile] = deque(maxlen=buffer_size)
        self._threshold = slow_threshold_seconds
        self._total = 0
        self._slow_total = 0

    @property
    def slow_threshold_seconds(self) -> float:
        return self._threshold

    @property
    def total_count(self) -> int:
        """Profiles ever recorded (including evicted ones)."""
        with self._lock:
            return self._total

    @property
    def slow_count(self) -> int:
        """Profiles ever recorded above the slow threshold."""
        with self._lock:
            return self._slow_total

    def record(self, profile: QueryProfile) -> bool:
        """Retain ``profile``; returns True when it counted as slow."""
        slow = profile.total_seconds >= self._threshold
        with self._lock:
            self._recent.append(profile)
            self._total += 1
            if slow:
                self._slow.append(profile)
                self._slow_total += 1
        return slow

    def recent(self, limit: int | None = None) -> list[QueryProfile]:
        """Newest-first recent profiles."""
        with self._lock:
            profiles = list(self._recent)
        profiles.reverse()
        return profiles[:limit] if limit is not None else profiles

    def slow(self, limit: int | None = None) -> list[QueryProfile]:
        """Newest-first slow profiles."""
        with self._lock:
            profiles = list(self._slow)
        profiles.reverse()
        return profiles[:limit] if limit is not None else profiles

    def clear(self) -> None:
        with self._lock:
            self._recent.clear()
            self._slow.clear()
