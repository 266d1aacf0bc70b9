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

from repro.errors import IndexError_, RepositoryError, SchemaError
from repro.index.documents import Document, document_from_schema
from repro.index.inverted import InvertedIndex
from repro.index.segments import (
    SegmentedIndex,
    ShardedSegmentIndex,
    make_merge_policy,
    open_segment_index,
)
from repro.model.schema import Schema
from repro.resilience.faults import FAULTS
from repro.telemetry.metrics import DEFAULT_COUNT_BUCKETS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.repository.store import SchemaRepository
    from repro.telemetry import Telemetry

logger = logging.getLogger(__name__)


class RepositoryIndexer:
    """Keeps an :class:`InvertedIndex` in sync with a repository.

    Each indexed document carries its schema's stored payload and match
    record, so the index generation is the whole read state of a
    search: what a refresh has not published, no search sees.  Nothing
    else needs telling about a batch.
    """

    def __init__(self, repository: "SchemaRepository",
                 segment_dir: str | Path | None = None,
                 merge_policy: str = "tiered",
                 shards: int | None = None) -> None:
        self._repository = repository
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

        The batch is read in one statement (one snapshot), and changes
        to one schema collapse to its state there, so a schema added
        and deleted between refreshes costs nothing.
        """
        with self._refresh_lock:
            return self._refresh()

    def _refresh(self) -> int:
        FAULTS.hit("indexer.refresh")
        changes = self._repository.changes_since(self._last_change_id,
                                                 texts=True)
        if not changes:
            return 0
        # Every row of one schema carries the same text (its state in
        # the snapshot), so the last row per schema is the whole story;
        # rows arrive in change order.
        latest = {schema_id: text
                  for _change_id, schema_id, _op, text in changes}
        head_change_id = changes[-1][0]
        started = time.perf_counter()
        generation_before = self._index.generation
        logger.debug("indexer refresh: %d pending change(s)",
                     len(changes))
        # Build off the index lock: decoding and flattening are nearly
        # all of a batch's cost.  A build that raises publishes nothing.
        edits = self._build(latest)
        # Apply in one index batch: it publishes one view when done, so
        # a concurrent searcher (run_scheduled in a background thread is
        # the intended deployment) reads the previous view until then
        # and sees the whole batch or none of it, never waiting.
        published = time.perf_counter()
        with self._index.batch(), self._refreshing_guard():
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

    def _build(self, latest: dict[int, bytes | None]
               ) -> list[tuple[int, Document | None]]:
        """Resolve a collapsed batch into index edits, off the lock:
        one ``(schema_id, document)`` per schema, None to remove it."""
        return [(schema_id, None if text is None
                 else _stored_document(schema_id, text))
                for schema_id, text in latest.items()]

    def _publish(self, edits: list[tuple[int, Document | None]]) -> int:
        """Apply built edits; returns operations applied.  The caller
        holds an index batch open."""
        applied = 0
        for schema_id, document in edits:
            if document is not None:
                self._index.replace(document)
                applied += 1
                continue
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
        if not isinstance(index, (SegmentedIndex, ShardedSegmentIndex)):
            return
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

    def rebuild(self) -> int:
        """Drop the index and re-flatten every stored schema.

        Rows whose stored payload no longer parses are skipped (and
        logged by the repository) rather than aborting the rebuild: one
        corrupt schema must not take the other 30k offline.
        """
        with self._refresh_lock:
            return self._rebuild()

    def _rebuild(self) -> int:
        count = 0
        # Holding a segment index's commit lock keeps flushes, merges
        # and reopens out of the whole rebuild; it is ordered before the
        # writers' lock the batch takes.
        commit_lock = getattr(self._index, "commit_lock", None)
        # Read the cursor before the schemas: a change committed while
        # they stream in is replayed by the next refresh, never skipped.
        changes = self._repository.changes_since(self._last_change_id)
        with commit_lock or nullcontext(), self._index.batch(), \
                self._refreshing_guard():
            self._index.clear()
            for schema_id, text in self._repository.iter_stored():
                try:
                    document = _stored_document(schema_id, text)
                except RepositoryError as exc:
                    logger.warning("rebuild skips a row: %s", exc)
                    continue
                self._index.add(document)
                count += 1
        if changes:
            self._last_change_id = changes[-1][0]
        self._commit_segments()
        return count


def _stored_document(schema_id: int, text: bytes) -> Document:
    """The index document of one schema's stored text: refresh and
    rebuild both publish through here, so a document's payload is
    the stored text, packed, and its match record comes from the one
    decode of it."""
    try:
        schema = Schema.from_json(text)
    except SchemaError as exc:
        raise RepositoryError(
            f"stored payload of schema {schema_id} is corrupt: "
            f"{exc}") from exc
    return document_from_schema(schema, text=text)
