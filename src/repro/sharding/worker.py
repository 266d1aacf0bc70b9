"""The shard worker process: one engine over one shard, driven by a pipe.

Each worker is a real :class:`~repro.core.engine.SchemrEngine` wrapped
in a small request loop:

* it mmaps its shard's segment directory — O(ms), zero-copy, nothing
  pickled — and decodes candidates from the payloads the segments
  carry, through its own :class:`~repro.matching.profile.ProfileStore`
  (it never opens the repository database);
* it answers ``phase1`` requests with
  :meth:`~repro.index.searcher.IndexSearcher.search_prepared` (the
  front pins the global idf statistics, so per-shard scores are exactly
  the global scores restricted to the shard's documents) and ``phase2``
  requests with :meth:`~repro.core.engine.SchemrEngine.match_and_score`
  (the same candidate-matching code path as single-process serving,
  breakers and deadline checks included).

Each phase request names the change-log cursor of the shard view the
front pinned; a worker whose view has another cursor answers
``{"stale": True}`` instead, so a page never mixes generations.  A
``reopen`` swaps the worker's index view in place.

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
    shard_dir: str
    config: SchemrConfig


_STALE = {"stale": True}


def _pinned(engine: SchemrEngine, payload: dict):
    """The worker's view when it is the one the front pinned, else
    None (the request is stale)."""
    view = engine.searcher.index.view()
    if view.last_change_id != payload["last_change_id"]:
        return None
    return view


def _handle_phase1(engine: SchemrEngine, payload: dict) -> dict:
    view = _pinned(engine, payload)
    if view is None:
        return _STALE
    hits = engine.searcher.search_prepared(payload["prepared"],
                                           top_n=payload["top_n"],
                                           view=view)
    stats = engine.searcher.last_stats
    return {
        "hits": hits,
        "strategy": stats.strategy if stats is not None else "",
        "docs_scored": stats.docs_scored if stats is not None else 0,
        "pruned_early": (stats.pruned_early if stats is not None
                         else False),
    }


def _handle_phase2(engine: SchemrEngine, payload: dict) -> dict:
    view = _pinned(engine, payload)
    if view is None:
        return _STALE
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
            cheap_only=payload["cheap_only"], view=view)
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
    try:
        index = SegmentedIndex.open(spec.shard_dir)
        engine = SchemrEngine(index=index, config=spec.config)
        conn.send((TAG_READY, 0, {
            "pid": os.getpid(),
            "documents": index.document_count,
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
                    # A shard committed a newer cursor: publish a view
                    # of its directory (O(segment count)); the engine,
                    # its caches and the maps it still uses stay.
                    index.reopen_from_disk()
                    out = {"documents": index.document_count}
                elif kind == TAG_PING:
                    out = {"pid": os.getpid(),
                           "documents": index.document_count}
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
