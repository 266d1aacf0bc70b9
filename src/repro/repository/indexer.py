"""The offline text indexer.

"At scheduled intervals, an offline Lucene Text Indexer flattens schemas
from the Schema Repository to construct or update the document index."

:class:`RepositoryIndexer` consumes the repository change log: each
:meth:`refresh` applies only the adds/updates/deletes recorded since the
previous refresh, so a 30k-schema repository is not re-flattened when
one schema changes.  :meth:`run_scheduled` loops refresh-sleep-refresh
for deployments that want the paper's interval behaviour literally.
"""

from __future__ import annotations

import logging
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro.errors import IndexError_, SchemaNotFound
from repro.index.documents import Document, document_from_schema
from repro.index.inverted import InvertedIndex
from repro.index.segments import (
    SegmentedIndex,
    ShardedSegmentIndex,
    make_merge_policy,
    open_segment_index,
)
from repro.index.store import load_index, save_index
from repro.matching.profile import ProfileStore
from repro.resilience.faults import FAULTS
from repro.telemetry.metrics import DEFAULT_COUNT_BUCKETS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.repository.store import SchemaRepository
    from repro.telemetry import Telemetry

logger = logging.getLogger(__name__)


class RepositoryIndexer:
    """Keeps an :class:`InvertedIndex` in sync with a repository.

    When a :class:`~repro.matching.profile.ProfileStore` is attached,
    every refresh also keeps match profiles in step with the changelog:
    deletes invalidate, adds/updates rebuild eagerly (the schema is
    already in hand), so queries never pay the profile build.
    """

    def __init__(self, repository: "SchemaRepository",
                 profile_store: ProfileStore | None = None,
                 segment_dir: str | Path | None = None,
                 merge_policy: str = "tiered",
                 shards: int | None = None) -> None:
        self._repository = repository
        self._profile_store = profile_store
        self._merge_policy = make_merge_policy(merge_policy)
        if segment_dir is not None:
            # Durable mode: the index lives in a segment directory.
            # Opening is O(segment count); the manifest's change-log
            # cursor tells us which repository changes the on-disk
            # state already reflects, so refresh replays only the gap.
            # With ``shards`` > 1 (or an existing SHARDS.json layout)
            # the directory is doc-id-sharded and every flush/merge
            # routes per shard.
            self._index: InvertedIndex | SegmentedIndex | \
                ShardedSegmentIndex = open_segment_index(
                    segment_dir, shards=shards, create=True, sweep=True)
            self._last_change_id = self._index.last_change_id
        else:
            if shards is not None and shards > 1:
                raise IndexError_(
                    "a sharded index requires a segment directory; "
                    "pass segment_dir alongside shards")
            self._index = InvertedIndex()
            self._last_change_id = 0
        # One refresh or rebuild at a time: batches are built off the
        # index lock, and a batch built from older repository state
        # must never publish after a newer one.  Ordered before every
        # index lock; readers never take it.
        self._refresh_lock = threading.Lock()
        self._stop_event = threading.Event()
        self._refreshing = False
        self._consecutive_failures = 0
        #: Optional :class:`~repro.telemetry.Telemetry` to report
        #: refresh batches into; wired by ``SchemaRepository.engine()``
        #: so the indexer and the engine share one registry.
        self.telemetry: "Telemetry | None" = None

    @property
    def refreshing(self) -> bool:
        """Whether a refresh batch is being published (or a rebuild
        applied) right now.

        The ``/readyz`` probe reports 503 while this is set — a
        mid-rebuild index serves stale or partial rankings.  Building a
        refresh batch does not set it: the index is untouched until the
        publish.
        """
        return self._refreshing

    @property
    def consecutive_failures(self) -> int:
        """Failed scheduled refreshes since the last success."""
        return self._consecutive_failures

    @property
    def index(self) -> InvertedIndex | SegmentedIndex | ShardedSegmentIndex:
        return self._index

    @property
    def last_change_id(self) -> int:
        return self._last_change_id

    def refresh(self) -> int:
        """Apply pending change-log entries; returns operations applied.

        Multiple changes to one schema within a batch collapse to the
        final state, so a schema added and deleted between refreshes
        costs nothing.
        """
        with self._refresh_lock:
            return self._refresh()

    def _refresh(self) -> int:
        FAULTS.hit("indexer.refresh")
        changes = self._repository.changes_since(self._last_change_id)
        if not changes:
            return 0
        final_op: dict[int, str] = {}
        head_change_id = self._last_change_id
        for change_id, schema_id, op in changes:
            final_op[schema_id] = op
            head_change_id = max(head_change_id, change_id)
        started = time.perf_counter()
        generation_before = self._index.generation
        logger.debug("indexer refresh: %d pending change(s)",
                     len(changes))
        # Build off the index lock: repository fetches, flattening and
        # profile builds are nearly all of a batch's cost, and searches
        # keep reading the previous generation meanwhile.  A build that
        # raises publishes nothing.
        edits = self._build(final_op)
        # Publish under the lock: only the prepared index edits, so a
        # concurrent searcher (run_scheduled in a background thread is
        # the intended deployment) sees the whole batch or none of it,
        # and waits at most for this loop, never for the build.
        published = time.perf_counter()
        with self._index.lock, self._refreshing_guard():
            applied = self._publish(edits)
        publish_seconds = time.perf_counter() - published
        # The cursor moves only after the whole batch applied: a batch
        # that raised replays from the same position next refresh.
        self._last_change_id = head_change_id
        logger.info("indexer refresh applied %d operation(s); index holds "
                    "%d document(s)", applied, self._index.document_count)
        self._commit_segments()
        self._record_refresh(applied, time.perf_counter() - started,
                             publish_seconds, generation_before)
        return applied

    def _build(self, final_op: dict[int, str]
               ) -> list[tuple[int, Document | None]]:
        """Resolve a collapsed batch into index edits, off the lock.

        One ``(schema_id, document)`` per schema: the document to
        (re)index, or None to remove it.  Rebuilding the profile here is
        safe: repository CRUD already invalidated the entry, and a
        read-through fill would serve the same newest copy.
        """
        edits: list[tuple[int, Document | None]] = []
        for schema_id, op in final_op.items():
            schema = None
            if op != "delete":
                # add/update collapse to replace-with-current-state;
                # the schema may have been deleted after the logged
                # change.
                try:
                    schema = self._repository.get_schema(schema_id)
                except SchemaNotFound:
                    pass
            if schema is None:
                edits.append((schema_id, None))
                continue
            edits.append((schema_id, document_from_schema(schema)))
            if self._profile_store is not None:
                self._profile_store.put(schema)
        return edits

    def _publish(self, edits: list[tuple[int, Document | None]]) -> int:
        """Apply built edits; returns operations applied.  The caller
        holds the index lock."""
        applied = 0
        for schema_id, document in edits:
            if document is not None:
                self._index.replace(document)
                applied += 1
                continue
            if self._profile_store is not None:
                self._profile_store.invalidate(schema_id)
            if self._index.has_document(schema_id):
                self._index.remove(schema_id)
                applied += 1
        return applied

    def _commit_segments(self) -> None:
        """Make a segmented index durable after a batch: flush + merge.

        Flushing seals the delta into a new immutable segment and
        records the change-log cursor in the manifest; the merge policy
        then gets a chance to fold segments (bounded per batch so one
        refresh cannot cascade forever).  Both swaps preserve the
        generation, so warm caches survive.  No-op for the in-memory
        index.
        """
        index = self._index
        if not isinstance(index, (SegmentedIndex, ShardedSegmentIndex)) \
                or index.directory is None:
            return  # in-memory, or a standalone loaded segment file
        index.flush(last_change_id=self._last_change_id)
        for _ in range(4):
            started = time.perf_counter()
            merged = index.maybe_merge(self._merge_policy)
            if not merged:
                break
            seconds = time.perf_counter() - started
            logger.info("indexer merged %d segment(s) in %.3fs "
                        "(%d live segment(s))",
                        merged, seconds, index.segment_count)
            self._record_merge(merged, seconds)

    def _record_merge(self, merged: int, seconds: float) -> None:
        telemetry = self.telemetry
        if telemetry is None or not telemetry.enabled:
            return
        m = telemetry.metrics
        m.counter("schemr_segment_merges_total",
                  "Segment merges completed").inc()
        m.counter("schemr_segment_merged_segments_total",
                  "Segments rewritten by merges").inc(merged)
        m.histogram("schemr_segment_merge_seconds",
                    "Segment merge duration").observe(seconds)

    def _record_refresh(self, applied: int, seconds: float,
                        publish_seconds: float,
                        generation_before: int) -> None:
        telemetry = self.telemetry
        if telemetry is None or not telemetry.enabled:
            return
        m = telemetry.metrics
        m.counter("schemr_indexer_refreshes_total",
                  "Indexer refresh batches applied").inc()
        m.counter("schemr_indexer_ops_applied_total",
                  "Index operations applied by refreshes").inc(applied)
        m.histogram("schemr_indexer_refresh_seconds",
                    "Refresh batch duration").observe(seconds)
        m.histogram("schemr_indexer_publish_seconds",
                    "Refresh time spent holding the index lock"
                    ).observe(publish_seconds)
        m.histogram("schemr_indexer_batch_size",
                    "Operations per refresh batch",
                    buckets=DEFAULT_COUNT_BUCKETS).observe(applied)
        if self._index.generation != generation_before:
            m.counter("schemr_indexer_generation_bumps_total",
                      "Refreshes that moved the index generation").inc()

    @contextmanager
    def _refreshing_guard(self) -> Iterator[None]:
        self._refreshing = True
        try:
            yield
        finally:
            self._refreshing = False

    def run_scheduled(self, interval_seconds: float,
                      max_refreshes: int | None = None) -> int:
        """Refresh on an interval until :meth:`stop` (or max_refreshes).

        Returns the total operations applied.  Meant to run in a
        background thread; the unit tests drive it with a small
        ``max_refreshes`` instead of sleeping forever.

        A failed refresh (store locked past the retry budget, corrupt
        row) is logged and counted, and the loop waits for the next
        interval instead of dying — the change-log cursor only advances
        on success, so nothing is lost.
        """
        total = 0
        refreshes = 0
        while not self._stop_event.is_set():
            try:
                total += self.refresh()
            except Exception as exc:
                self._consecutive_failures += 1
                logger.error(
                    "scheduled refresh failed (%d consecutive): %s",
                    self._consecutive_failures, exc)
                self._record_refresh_failure()
            else:
                self._consecutive_failures = 0
            refreshes += 1
            if max_refreshes is not None and refreshes >= max_refreshes:
                break
            if self._stop_event.wait(interval_seconds):
                break
        return total

    def _record_refresh_failure(self) -> None:
        telemetry = self.telemetry
        if telemetry is None or not telemetry.enabled:
            return
        telemetry.metrics.counter(
            "schemr_indexer_refresh_failures_total",
            "Scheduled refreshes that raised").inc()

    def stop(self) -> None:
        """Signal :meth:`run_scheduled` to exit."""
        self._stop_event.set()

    # -- persistence ---------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Persist the current index segment to disk."""
        save_index(self._index, path)

    def load(self, path: str | Path) -> None:
        """Replace the in-memory index with a persisted segment.

        The change-log cursor advances to the repository's current head:
        the segment is assumed to be a snapshot of the repository as it
        is now, so subsequent refreshes only replay *future* changes.
        Call :meth:`rebuild` instead when the snapshot's provenance is
        unknown.  Loading a *segment directory* whose manifest recorded
        a change-log cursor resumes from that cursor instead, replaying
        exactly the changes the on-disk state has not seen.
        """
        loaded = load_index(path)
        self._index = loaded
        if loaded.last_change_id:
            self._last_change_id = loaded.last_change_id
            return
        changes = self._repository.changes_since(self._last_change_id)
        if changes:
            self._last_change_id = changes[-1][0]

    def rebuild(self) -> int:
        """Drop the index (and profile cache) and re-flatten every
        stored schema.

        Rows whose stored payload no longer parses are skipped (and
        logged by the repository) rather than aborting the rebuild: one
        corrupt schema must not take the other 30k offline.
        """
        with self._refresh_lock:
            return self._rebuild()

    def _rebuild(self) -> int:
        count = 0
        # A segment index orders its commit lock before its read lock
        # (flush and merge take them in that order, and clear() below
        # takes both), so take it first.
        commit_lock = getattr(self._index, "commit_lock", None)
        with commit_lock or nullcontext(), self._index.lock, \
                self._refreshing_guard():
            self._index.clear()
            if self._profile_store is not None:
                self._profile_store.clear()
            for schema in self._repository.iter_schemas(skip_corrupt=True):
                self._index.add(document_from_schema(schema))
                if self._profile_store is not None:
                    self._profile_store.put(schema)
                count += 1
        changes = self._repository.changes_since(self._last_change_id)
        if changes:
            self._last_change_id = changes[-1][0]
        self._commit_segments()
        return count
