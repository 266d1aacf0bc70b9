"""``repro.telemetry`` — observability for the three-phase pipeline.

The subsystem has three parts, all owned by one :class:`Telemetry`
facade so a single object wires the whole engine:

* :mod:`repro.telemetry.metrics` — a :class:`MetricsRegistry` of
  lock-protected counters, gauges, and fixed-bucket histograms with a
  Prometheus text exposition (the ``/metrics`` endpoint);
* :mod:`repro.telemetry.profile` — one :class:`QueryProfile` per
  search (phase wall time, candidate counts, cache/prune outcomes,
  empty-result reason) plus the slow-query log; it is the one
  per-search timing record;
* :mod:`repro.telemetry.history` — a persistent JSONL
  :class:`SearchHistorySink` of query terms and ranked results, the
  raw feed for the paper's search-history meta-learner.

Telemetry is **off by default** (``SchemrConfig.telemetry_enabled``).
Disabled, every instrument is a shared no-op object: the pipeline pays
a handful of attribute lookups and empty calls per query (bounded by
``benchmarks/bench_telemetry_overhead.py``) and nothing is retained.
Enabled, the engine, searcher, caches, indexer, and HTTP service all
report into the same facade.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.telemetry.history import HistoryRecord, SearchHistorySink
from repro.telemetry.metrics import (
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    MetricSample,
)
from repro.telemetry.profile import (
    EMPTY_ALL_FILTERED,
    EMPTY_NO_INDEX_HITS,
    EMPTY_OFFSET_BEYOND,
    QueryProfile,
    QueryProfileLog,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import SchemrConfig

__all__ = [
    "Counter",
    "DEFAULT_COUNT_BUCKETS",
    "DEFAULT_TIME_BUCKETS",
    "EMPTY_ALL_FILTERED",
    "EMPTY_NO_INDEX_HITS",
    "EMPTY_OFFSET_BEYOND",
    "Gauge",
    "Histogram",
    "HistoryRecord",
    "MetricSample",
    "MetricsRegistry",
    "MetricsSnapshot",
    "QueryProfile",
    "QueryProfileLog",
    "SearchHistorySink",
    "Telemetry",
]


class Telemetry:
    """One handle over metrics, profiling, and history.

    Construct via :meth:`from_config` (the engine does this) or
    directly in tests.  A disabled instance exposes the same API with
    no-op instruments, so instrumentation sites never branch on the
    flag themselves — except around work that only *produces* telemetry
    input (building a profile dict, say), which they gate on
    :attr:`enabled`.
    """

    def __init__(self, enabled: bool = True, *,
                 slow_query_seconds: float = 0.25,
                 history_path: str | Path | None = None,
                 history_max_bytes: int | None = None,
                 wall_clock: Callable[[], float] = time.time) -> None:
        self.enabled = enabled
        self.wall_clock = wall_clock
        self.metrics = MetricsRegistry(enabled=enabled)
        self.profiles = QueryProfileLog(
            slow_threshold_seconds=slow_query_seconds)
        self.history: SearchHistorySink | None = (
            SearchHistorySink(history_path, wall_clock=wall_clock,
                              max_bytes=history_max_bytes)
            if enabled and history_path is not None else None)

    @classmethod
    def from_config(cls, config: "SchemrConfig") -> "Telemetry":
        """The engine's constructor path: knobs from SchemrConfig."""
        return cls(
            enabled=config.telemetry_enabled,
            slow_query_seconds=config.slow_query_seconds,
            history_path=config.history_path,
            history_max_bytes=config.history_max_bytes,
        )

    @classmethod
    def disabled(cls) -> "Telemetry":
        return cls(enabled=False)

    def close(self) -> None:
        """Flush and close the history sink (idempotent)."""
        if self.history is not None:
            self.history.close()

    def summary_text(self) -> str:
        """Human-readable stats table (see ``schemr stats``)."""
        from repro.telemetry.report import summary_text
        return summary_text(self)

    def summary_xml(self) -> str:
        """XML stats document (the ``/stats`` endpoint payload)."""
        from repro.telemetry.report import summary_xml
        return summary_xml(self)
