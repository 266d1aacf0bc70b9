"""The shard worker process: one engine over one shard, driven by a pipe.

Each worker is a real :class:`~repro.core.engine.SchemrEngine` wrapped
in a small request loop:

* it opens **its own** connection to the repository database (sqlite in
  WAL mode is multi-process safe) and its own
  :class:`~repro.matching.profile.ProfileStore`;
* it mmaps its shard's segment directory — O(ms), zero-copy, nothing
  pickled;
* it answers ``phase1`` requests with
  :meth:`~repro.index.searcher.IndexSearcher.search_prepared` (the
  front pins the global idf statistics, so per-shard scores are exactly
  the global scores restricted to the shard's documents) and ``phase2``
  requests with :meth:`~repro.core.engine.SchemrEngine.match_and_score`
  (the same candidate-matching code path as single-process serving,
  breakers and deadline checks included).

The protocol is qid-tagged tuples ``(kind, qid, payload)`` in both
directions over a ``multiprocessing`` pipe; the front demultiplexes
responses so concurrent serving threads can share one worker.  Worker
telemetry is disabled — the front owns all metrics.
"""

from __future__ import annotations

import logging
import os
import signal
from dataclasses import dataclass

from repro.core.config import SchemrConfig
from repro.core.engine import SchemrEngine, breaker_trouble
from repro.errors import CircuitOpenError, DeadlineExceeded
from repro.index.segments import SegmentedIndex
from repro.resilience.deadline import Deadline
from repro.sharding.protocol import (
    TAG_BYE,
    TAG_ERROR,
    TAG_PHASE1,
    TAG_PHASE2,
    TAG_PING,
    TAG_READY,
    TAG_REOPEN,
    TAG_SHUTDOWN,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker process needs to build its engine.

    Picklable (plain module-level dataclass) so both ``fork`` and
    ``spawn`` start methods work.  ``config`` is the front's config
    already stripped for worker use: telemetry/history off, fuzzy off
    (expansion happened in :meth:`prepare` on the front), one shard.
    """

    shard_id: int
    shard_count: int
    db_path: str
    shard_dir: str
    config: SchemrConfig


def _build_engine(spec: WorkerSpec, repository) -> SchemrEngine:
    index = SegmentedIndex.open(spec.shard_dir)
    return SchemrEngine(index=index, source=repository.profile_store(),
                        config=spec.config)


def _handle_phase1(engine: SchemrEngine, payload: dict) -> dict:
    hits = engine.searcher.search_prepared(payload["prepared"],
                                           top_n=payload["top_n"])
    stats = engine.searcher.last_stats
    return {
        "hits": hits,
        "strategy": stats.strategy if stats is not None else "",
        "docs_scored": stats.docs_scored if stats is not None else 0,
        "pruned_early": (stats.pruned_early if stats is not None
                         else False),
    }


def _handle_phase2(engine: SchemrEngine, payload: dict) -> dict:
    budget = payload["budget"]
    if budget is not None and budget <= 0:
        return {"results": [], "deadline_expired": True,
                "all_failed": False, "clean": False}
    deadline = Deadline(budget)
    # ``clean``: no matcher or schema fetch failed in this bucket (the
    # front admits only clean pages to its result cache).
    breakers = engine.breakers.values()
    trouble = breaker_trouble(breakers)
    try:
        results = engine.match_and_score(
            payload["query"], payload["hits"], deadline,
            cheap_only=payload["cheap_only"])
    except DeadlineExceeded:
        return {"results": [], "deadline_expired": True,
                "all_failed": False, "clean": False}
    except CircuitOpenError:
        return {"results": [], "deadline_expired": False,
                "all_failed": True, "clean": False}
    return {"results": results, "deadline_expired": False,
            "all_failed": False,
            "clean": breaker_trouble(breakers) == trouble}


def worker_main(spec: WorkerSpec, conn) -> None:
    """The worker process entry point: build the engine, serve the pipe.

    Exits when the pipe closes (front died) or on an explicit
    ``shutdown`` message.  Per-request exceptions become ``error``
    responses; they never kill the worker.
    """
    # The front orchestrates shutdown; a terminal Ctrl-C must not kill
    # workers out from under an in-flight scatter.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Imported here, not at module top: the parent imports this module
    # too, and the worker-side repository connection must be opened in
    # the child (a forked sqlite connection is not ours to share).
    from repro.repository.store import SchemaRepository
    repository = None
    try:
        repository = SchemaRepository(spec.db_path)
        engine = _build_engine(spec, repository)
        conn.send((TAG_READY, 0, {
            "pid": os.getpid(),
            "documents": engine.searcher.index.document_count,
        }))
        while True:
            try:
                kind, qid, payload = conn.recv()
            except (EOFError, OSError):
                break
            if kind == TAG_SHUTDOWN:
                conn.send((TAG_BYE, qid, None))
                break
            try:
                if kind == TAG_PHASE1:
                    out = _handle_phase1(engine, payload)
                elif kind == TAG_PHASE2:
                    out = _handle_phase2(engine, payload)
                elif kind == TAG_REOPEN:
                    # The front flushed new segments; swap in a fresh
                    # view of the shard directory (O(segment count)).
                    engine.close()
                    engine = _build_engine(spec, repository)
                    out = {
                        "documents":
                            engine.searcher.index.document_count,
                    }
                elif kind == TAG_PING:
                    out = {
                        "pid": os.getpid(),
                        "documents":
                            engine.searcher.index.document_count,
                    }
                else:
                    raise ValueError(f"unknown request kind {kind!r}")
            except Exception as exc:
                logger.warning("shard %d worker request %r failed: %s",
                               spec.shard_id, kind, exc)
                try:
                    conn.send((TAG_ERROR, qid,
                               f"{type(exc).__name__}: {exc}"))
                except (OSError, ValueError):
                    break
            else:
                try:
                    conn.send((kind, qid, out))
                except (OSError, ValueError):
                    break
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover - teardown race
            pass
        if repository is not None:
            repository.close()
