"""The segmented index: mmapped immutable segments + an in-memory delta.

:class:`SegmentedIndex` presents the full
:class:`~repro.index.inverted.InvertedIndex` protocol — mutations,
statistics, ``snapshot()``, ``view()`` and ``generation`` — over a
Lucene-style composite:

* zero or more immutable :class:`~repro.index.segments.format.MmapSegment`
  files, opened in O(1) and read zero-copy;
* one small in-memory delta absorbing live mutations;
* per-segment tombstone sets hiding deleted segment documents until a
  merge rewrites them away.

Every read goes through the published
:class:`~repro.index.segments.view.IndexView`; writers change private
state and publish the next view with one reference swap.

Generation semantics are the contract that keeps every cache honest:
**mutations bump the generation, segment swaps do not.**  A flush moves
delta documents into a new immutable segment and a merge rewrites
segments without tombstones — both change the physical layout while
provably preserving every ranking, score, and statistic, so the
:class:`~repro.index.cache.QueryCache`, the trigram vocabulary, and the
view's snapshot stay valid and stay *warm* across swaps.  A view
pinned before a swap keeps reading the segments it holds; a retired
segment is unmapped once the last view holding it is dropped, and no
writer closes one early.

Locking: the writers' lock serialises writers and is held only for
short steps; readers never take it.  The compound writers —
:meth:`flush`, :meth:`maybe_merge`, :meth:`reopen_from_disk` — are
serialised by a second commit lock, always taken *before* the writers'
lock.  A merge holds the writers'
lock only to pick its inputs and to swap the result in; the merged
file is written with it released (see :meth:`maybe_merge`).
"""

from __future__ import annotations

import threading
from pathlib import Path

from repro.errors import IndexError_
from repro.index.documents import Document
from repro.index.segments.directory import SegmentDirectory
from repro.index.segments.format import MmapSegment, file_crc32, write_segment
from repro.index.segments.merge import CompactionView
from repro.index.segments.view import (DeltaWriter, IndexView,
                                       SegmentStats, ViewIndex)
from repro.resilience.faults import FAULTS


def _entry_meta(entry: dict) -> dict | None:
    """Checksum metadata from a manifest entry, or None for legacy
    manifests that predate per-segment checksums."""
    if "bytes" in entry and "crc32" in entry:
        return {"bytes": entry["bytes"], "crc32": entry["crc32"]}
    return None


def _file_meta(path: Path) -> dict:
    return {"bytes": path.stat().st_size, "crc32": file_crc32(path)}


class SegmentedIndex(ViewIndex, SegmentStats):
    """An inverted index served from immutable mmapped segments."""

    def __init__(self, directory: SegmentDirectory) -> None:
        self._directory = directory
        self._segments: list[MmapSegment] = []
        # Parallel to _segments: each segment's tombstones as the last
        # published view holds them, and {"bytes", "crc32"} per file
        # straight from the manifest (None for legacy entries, computed
        # lazily at the next commit so cold open stays O(segment count)).
        self._deleted: list[frozenset[int]] = []
        self._seg_meta: list[dict | None] = []
        # Tombstones added since the last publish, by segment position:
        # a batch copies the sets of the segments it deletes from, once.
        self._fresh: dict[int, set[int]] = {}
        self._delta = DeltaWriter()
        self._generation = 0
        self._lock = threading.RLock()
        self._depth = 0
        # Serialises the compound writers (flush, merge, reopen);
        # ordered before _lock.  Re-entrant so a caller holding it (the
        # indexer's rebuild) may flush.
        self._commit_lock = threading.RLock()
        self._next_id = 1
        self._last_change_id = 0
        self._view = IndexView(last_change_id=0)

    # -- construction ------------------------------------------------------

    @classmethod
    def open(cls, path: str | Path, create: bool = False,
             sweep: bool = False) -> "SegmentedIndex":
        """Open a segment directory; O(segment count), not corpus size.

        ``sweep`` forwards to :meth:`SegmentDirectory.open` — writers
        (the indexer, a replica syncer) pass True to clear crash debris
        on startup; read-only openers (shard workers) must not.
        """
        directory = SegmentDirectory.open(path, create=create, sweep=sweep)
        index = cls(directory)
        with index._lock:
            index._adopt(directory.read_manifest(), {})
            index._publish(committed=True)
        return index

    # -- concurrency -------------------------------------------------------

    @property
    def commit_lock(self) -> threading.RLock:
        """The compound writers' lock: flush, merge and reopen hold it.
        Ordered before the writers' lock; a caller that needs both (a
        rebuild that clears, refills and flushes) takes this one first."""
        return self._commit_lock

    @property
    def directory(self) -> SegmentDirectory:
        """The backing segment directory."""
        return self._directory

    def _fold(self) -> None:  # lint: unlocked (caller holds the lock)
        """Freeze the tombstones added since the last publish."""
        for i, dead in self._fresh.items():
            self._deleted[i] = frozenset(dead)
        self._fresh.clear()

    def _publish(self, committed: bool) -> None:  # lint: unlocked (caller holds the lock)
        """Swap in the view of the current state.

        A view with the previous view's generation has the same logical
        content, so it inherits the snapshot and vocabulary memos.
        """
        previous = self._view
        same = self._generation == previous.generation
        self._fold()
        self._view = IndexView(
            self._generation, self._last_change_id,
            segments=tuple(self._segments), deleted=tuple(self._deleted),
            delta=self._delta.freeze(), committed=committed,
            memos=previous if same else None)

    # -- mutation ----------------------------------------------------------

    def _changed(self) -> None:  # lint: unlocked (caller holds the lock)
        """Publish a mutation, unless a batch is still open."""
        if not self._depth and self._generation != self._view.generation:
            self._publish(committed=False)

    def _live_segment_index(self, doc_id: int) -> int | None:  # lint: unlocked (caller holds the lock)
        """Position of the segment holding the live copy of ``doc_id``
        in the writer's state, newest first."""
        for i in range(len(self._segments) - 1, -1, -1):
            if (doc_id not in self._fresh.get(i, self._deleted[i])
                    and self._segments[i].has_document(doc_id)):
                return i
        return None

    def _add(self, document: Document) -> None:  # lint: unlocked (caller holds the lock)
        if (document.doc_id in self._delta.documents
                or self._live_segment_index(document.doc_id) is not None):
            raise IndexError_(
                f"document {document.doc_id} already indexed; "
                "use replace()")
        self._delta.add(document)
        self._generation += 1

    def _remove(self, doc_id: int) -> bool:  # lint: unlocked (caller holds the lock)
        """Drop ``doc_id``; False when it is not indexed."""
        if doc_id in self._delta.documents:
            self._delta.remove(doc_id)
        else:
            i = self._live_segment_index(doc_id)
            if i is None:
                return False
            fresh = self._fresh.get(i)
            if fresh is None:
                fresh = self._fresh[i] = set(self._deleted[i])
            fresh.add(doc_id)
        self._generation += 1
        return True

    def add(self, document: Document) -> None:
        with self._lock:
            self._add(document)
            self._changed()

    def remove(self, doc_id: int) -> None:
        with self._lock:
            if not self._remove(doc_id):
                raise IndexError_(f"document {doc_id} is not indexed")
            self._changed()

    def replace(self, document: Document) -> None:
        """Update a document (remove + add), published once."""
        with self._lock:
            self._remove(document.doc_id)
            self._add(document)
            self._changed()

    def clear(self) -> None:
        """Drop every document.  A merge writing meanwhile finds its
        inputs gone and discards its output."""
        with self._lock:
            self._segments = []
            self._deleted = []
            self._seg_meta = []
            self._fresh.clear()
            self._delta = DeltaWriter()
            self._generation += 1
            self._changed()

    # -- segment lifecycle: flush, merge, commit ---------------------------

    def _index_views(self) -> tuple:
        return (self._view,)

    def flush(self, last_change_id: int | None = None) -> bool:
        """Seal the delta into a new on-disk segment and commit.

        Returns True when a segment was written.  The commit (manifest
        rewrite) always happens so tombstones and the change cursor are
        durable.  **The generation does not move**: the post-swap index
        answers every query identically, so warm caches stay valid.
        """
        with self._commit_lock, self._lock:
            self._fold()
            if last_change_id is not None:
                self._last_change_id = last_change_id
            wrote = False
            if self._delta.documents:
                segment_id = self._next_id
                self._next_id += 1
                seg_path = self._directory.segment_path(segment_id)
                write_segment(seg_path, IndexView(
                    delta=self._delta.freeze()))
                self._segments.append(MmapSegment(seg_path))
                self._deleted.append(frozenset())
                self._seg_meta.append(_file_meta(seg_path))
                self._delta = DeltaWriter()
                wrote = True
            # Crash-injection site: the new segment file is durable but
            # the manifest still points at the pre-flush state.
            FAULTS.hit("segments.flush.pre_commit")
            self._commit()
            self._publish(committed=True)
            return wrote

    def maybe_merge(self, policy) -> int:
        """Run at most one policy-selected merge; returns segments merged.

        The selected segments are rewritten into one (tombstoned
        documents dropped for good) and the manifest commits the swap.
        Like :meth:`flush`, the generation is untouched — a merge is a
        physical rewrite with an identical logical index on both sides.
        The inputs are not closed: a view pinned before the swap keeps
        reading them, and their maps go when the last such view does.

        Three steps, only the first and last under the writers' lock:
        pick the segments and their tombstones; write, open and checksum
        the merged file; swap it in and commit.  A document removed from a
        chosen segment during the write is in the merged file, so its
        tombstone carries over to the merged segment.
        """
        with self._commit_lock:
            with self._lock:
                self._fold()
                live = [segment.document_count - len(dead)
                        for segment, dead in zip(self._segments,
                                                 self._deleted)]
                dead_counts = [len(dead) for dead in self._deleted]
                picks = policy.select(live, dead_counts)
                if not picks:
                    return 0
                chosen = [self._segments[i] for i in picks]
                dead = [self._deleted[i] for i in picks]
                view = CompactionView(chosen, dead)
                seg_path = None
                if view.document_count:
                    seg_path = self._directory.segment_path(self._next_id)
                    self._next_id += 1
            merged_meta = None
            if seg_path is not None:
                write_segment(seg_path, view)
                merged_meta = _file_meta(seg_path)
            with self._lock:
                self._fold()
                # Find the chosen segments by identity, not position.
                now_dead = {id(segment): tombs for segment, tombs
                            in zip(self._segments, self._deleted)}
                if any(id(segment) not in now_dead for segment in chosen):
                    return 0  # cleared meanwhile; the sweep takes the file
                late: set[int] = set()
                for segment, snapshot in zip(chosen, dead):
                    late |= now_dead[id(segment)] - snapshot
                picked = {id(segment) for segment in chosen}
                kept = [(segment, tombs, meta) for segment, tombs, meta
                        in zip(self._segments, self._deleted,
                               self._seg_meta)
                        if id(segment) not in picked]
                if seg_path is not None:
                    kept.append((MmapSegment(seg_path), frozenset(late),
                                 merged_meta))
                self._segments = [entry[0] for entry in kept]
                self._deleted = [entry[1] for entry in kept]
                self._seg_meta = [entry[2] for entry in kept]
                # Crash-injection site: the merged segment is durable,
                # its inputs still referenced by the committed manifest.
                FAULTS.hit("segments.merge.pre_commit")
                self._commit()
                self._publish(committed=self._view.committed and (
                    self._generation == self._view.generation))
            return len(chosen)

    def _commit(self) -> None:  # lint: unlocked (caller holds the lock)
        """Rewrite the manifest from current state.  Lock held.

        Legacy segments opened from a pre-checksum manifest get their
        ``bytes``/``crc32`` computed here, once, so every committed
        manifest is replication- and verify-ready.
        """
        entries = []
        for i, (segment, dead) in enumerate(
                zip(self._segments, self._deleted)):
            meta = self._seg_meta[i]
            if meta is None:
                meta = self._seg_meta[i] = _file_meta(segment.path)
            entries.append({"file": segment.path.name,
                            "deleted": sorted(dead),
                            "bytes": meta["bytes"],
                            "crc32": meta["crc32"]})
        self._directory.write_manifest(
            next_id=self._next_id,
            last_change_id=self._last_change_id,
            segments=entries)

    def _adopt(self, manifest: dict, reuse: dict) -> None:  # lint: unlocked (caller holds the lock)
        """Take over a committed manifest's state, reusing the segments
        in ``reuse`` (by file name) and mapping the rest."""
        self._segments = [
            reuse.get(entry["file"])
            or MmapSegment(self._directory.path / entry["file"])
            for entry in manifest["segments"]]
        self._deleted = [frozenset(entry.get("deleted", ()))
                         for entry in manifest["segments"]]
        self._seg_meta = [_entry_meta(entry)
                          for entry in manifest["segments"]]
        self._next_id = manifest["next_id"]
        self._last_change_id = manifest.get("last_change_id", 0)

    def reopen_from_disk(self) -> bool:
        """Re-read the committed manifest and publish its view.

        The replica's hot-swap: after a pull commits a new manifest
        locally, this adopts it in place.  Segments already open are
        reused (their maps stay warm); vanished ones are unmapped when
        the last view holding them goes.  Requires an empty delta — a
        follower never takes local writes, and a swap under buffered
        mutations would silently drop them.

        Returns True when logical content changed (the manifest's
        ``last_change_id`` moved, so the generation bumps and
        generation-keyed caches invalidate) and False for a physical-only
        swap — the primary merged, rankings are identical by
        construction, and warm caches survive.
        """
        with self._commit_lock, self._lock:
            if self._delta.documents:
                raise IndexError_(
                    "reopen_from_disk requires an empty delta; this "
                    "index holds local writes")
            manifest = self._directory.read_manifest()
            changed = (manifest.get("last_change_id", 0)
                       != self._last_change_id)
            self._fresh.clear()
            self._adopt(manifest, {segment.path.name: segment
                                   for segment in self._segments})
            if changed:
                self._generation += 1
            self._publish(committed=True)
            return changed
