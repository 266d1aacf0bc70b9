"""The segmented index: mmapped immutable segments + an in-memory delta.

:class:`SegmentedIndex` presents the full
:class:`~repro.index.inverted.InvertedIndex` protocol — mutations,
statistics, ``snapshot()``, the mutation ``lock`` and ``generation`` —
over a Lucene-style composite:

* zero or more immutable :class:`~repro.index.segments.format.MmapSegment`
  files, opened in O(1) and read zero-copy;
* one small in-memory delta (a plain ``InvertedIndex``) absorbing live
  mutations;
* per-segment tombstone sets hiding deleted segment documents until a
  merge rewrites them away.

Generation semantics are the contract that keeps every cache honest:
**mutations bump the generation, segment swaps do not.**  A flush moves
delta documents into a new immutable segment and a merge rewrites
segments without tombstones — both change the physical layout while
provably preserving every ranking, score, and statistic, so the
:class:`~repro.index.cache.QueryCache`, the trigram vocabulary, and any
handed-out :class:`~repro.index.inverted.IndexSnapshot` stay valid and
stay *warm* across swaps.  Readers that memoized postings views against
the pre-swap layout keep serving identical values; the swapped-out
objects stay alive exactly as long as someone references them.

Locking: ``lock`` guards every read and every change to the in-memory
state, and is held only for short steps.  The compound writers —
:meth:`flush`, :meth:`maybe_merge`, :meth:`clear`,
:meth:`reopen_from_disk` — are serialised by a second, private commit
lock, always taken *before* ``lock`` and never by readers.  A merge
holds ``lock`` only to pick its inputs and to swap the result in; the
merged file is written with it released, so searches and mutations
proceed meanwhile (see :meth:`maybe_merge`).
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Iterator

from repro.errors import IndexError_
from repro.index.documents import Document
from repro.index.inverted import IndexSnapshot, InvertedIndex
from repro.index.segments.directory import SegmentDirectory
from repro.index.segments.format import MmapSegment, file_crc32, write_segment
from repro.index.segments.merge import (CompactionView, kill_set,
                                        merge_postings)
from repro.resilience.faults import FAULTS

#: Bound on the per-generation decoded-document memo (cleared
#: wholesale when full, and on every mutation).
_DOC_MEMO_MAX = 8192


def _entry_meta(entry: dict) -> dict | None:
    """Checksum metadata from a manifest entry, or None for legacy
    manifests that predate per-segment checksums."""
    if "bytes" in entry and "crc32" in entry:
        return {"bytes": entry["bytes"], "crc32": entry["crc32"]}
    return None


def _file_meta(path: Path) -> dict:
    return {"bytes": path.stat().st_size, "crc32": file_crc32(path)}


class SegmentedIndex:
    """An inverted index served from immutable mmapped segments."""

    def __init__(self, directory: SegmentDirectory | None = None) -> None:
        self._directory = directory
        self._segments: list[MmapSegment] = []
        self._deleted: list[set[int]] = []
        # Parallel to _segments: {"bytes", "crc32"} per file, straight
        # from the manifest; None for legacy entries, computed lazily at
        # the next commit so cold open stays O(segment count).
        self._seg_meta: list[dict | None] = []
        self._delta = InvertedIndex()
        self._live_seg_docs = 0
        self._generation = 0
        self._lock = threading.RLock()
        # Serialises the compound writers (flush, merge, clear, reopen);
        # ordered before _lock.  Re-entrant so a caller holding it (the
        # indexer's rebuild) may call clear().
        self._commit_lock = threading.RLock()
        self._snapshot: IndexSnapshot | None = None
        self._postings_memo: dict[str, object] = {}
        self._doc_memo: dict[int, Document] = {}
        self._vocab: list[str] | None = None
        self._next_id = 1
        self._last_change_id = 0

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
        manifest = directory.read_manifest()
        index = cls(directory=directory)
        for entry in manifest["segments"]:
            segment = MmapSegment(directory.path / entry["file"])
            index._segments.append(segment)
            index._deleted.append(set(entry.get("deleted", ())))
            index._seg_meta.append(_entry_meta(entry))
        index._live_seg_docs = sum(
            segment.document_count - len(dead)
            for segment, dead in zip(index._segments, index._deleted))
        index._next_id = manifest["next_id"]
        index._last_change_id = manifest.get("last_change_id", 0)
        return index

    @classmethod
    def from_segment_file(cls, path: str | Path) -> "SegmentedIndex":
        """Wrap a single standalone segment file (no directory).

        The result is fully mutable in memory — changes land in the
        delta — but cannot :meth:`flush`; persist with ``save_index``.
        """
        index = cls(directory=None)
        segment = MmapSegment(path)
        index._segments.append(segment)
        index._deleted.append(set())
        index._seg_meta.append(None)
        index._live_seg_docs = segment.document_count
        return index

    # -- concurrency / invalidation ---------------------------------------

    @property
    def generation(self) -> int:  # lint: unlocked (GIL-atomic int read; mirrors InvertedIndex.generation)
        """Bumped on every mutation; **unchanged** by flushes and
        merges, which preserve rankings by construction."""
        return self._generation

    @property
    def lock(self) -> threading.RLock:
        """The mutation lock (re-entrant, shared with all readers)."""
        return self._lock

    @property
    def commit_lock(self) -> threading.RLock:
        """The writers' lock: flush, merge, clear and reopen hold it.

        Ordered before :attr:`lock`; a caller that needs both (a
        rebuild that clears and refills under ``lock``) takes this one
        first.  Readers never take it.
        """
        return self._commit_lock

    @property
    def directory(self) -> SegmentDirectory | None:  # lint: unlocked (set once in the constructor)
        """The backing directory, or None for a standalone segment
        file (mutable in memory, but unable to :meth:`flush`)."""
        return self._directory

    def _bump(self) -> None:  # lint: unlocked (caller holds the lock; every mutator wraps this)
        """Invalidate generation-scoped caches after a mutation.

        Callers hold the lock (every mutator does).
        """
        self._generation += 1
        self._postings_memo.clear()
        self._doc_memo.clear()
        self._vocab = None

    # -- mutation ----------------------------------------------------------

    def add(self, document: Document) -> None:
        with self._lock:
            if self.has_document(document.doc_id):
                raise IndexError_(
                    f"document {document.doc_id} already indexed; "
                    "use replace()")
            self._delta.add(document)
            self._bump()

    def remove(self, doc_id: int) -> None:
        with self._lock:
            if self._delta.has_document(doc_id):
                self._delta.remove(doc_id)
            else:
                i = self._live_segment_index(doc_id)
                if i is None:
                    raise IndexError_(f"document {doc_id} is not indexed")
                self._deleted[i].add(doc_id)
                self._live_seg_docs -= 1
            self._bump()

    def replace(self, document: Document) -> None:
        with self._lock:
            if self.has_document(document.doc_id):
                self.remove(document.doc_id)
            self.add(document)

    def clear(self) -> None:
        with self._commit_lock, self._lock:
            for segment in self._segments:
                segment.close()
            self._segments = []
            self._deleted = []
            self._seg_meta = []
            self._live_seg_docs = 0
            self._delta.clear()
            self._bump()

    # -- statistics --------------------------------------------------------

    @property
    def document_count(self) -> int:
        with self._lock:
            return self._live_seg_docs + self._delta.document_count

    @property
    def term_count(self) -> int:
        with self._lock:
            return len(self._vocabulary_list())

    def _live_segment_index(self, doc_id: int) -> int | None:  # lint: unlocked (caller holds the lock)
        """Index of the segment holding the *live* copy of ``doc_id``.

        Newest-first: a replaced document leaves a tombstoned copy in an
        older segment and a live copy in a newer one.  Callers hold the
        lock.
        """
        for i in range(len(self._segments) - 1, -1, -1):
            if (doc_id not in self._deleted[i]
                    and self._segments[i].has_document(doc_id)):
                return i
        return None

    def has_document(self, doc_id: int) -> bool:
        with self._lock:
            return (self._delta.has_document(doc_id)
                    or self._live_segment_index(doc_id) is not None)

    def document(self, doc_id: int) -> Document:
        with self._lock:
            document = self._doc_memo.get(doc_id)
            if document is not None:
                return document
            if self._delta.has_document(doc_id):
                document = self._delta.document(doc_id)
            else:
                i = self._live_segment_index(doc_id)
                if i is None:
                    raise IndexError_(f"document {doc_id} is not indexed")
                document = self._segments[i].document(doc_id)
            # Result pages hit the same documents query after query;
            # skipping the per-segment probes on repeats keeps warm
            # latency at parity with the in-memory index.
            if len(self._doc_memo) >= _DOC_MEMO_MAX:
                self._doc_memo.clear()
            self._doc_memo[doc_id] = document
            return document

    def documents(self) -> Iterator[Document]:
        with self._lock:
            out = list(self._delta.documents())
            for segment, dead in zip(self._segments, self._deleted):
                for doc_id in segment.doc_ids():
                    if doc_id not in dead:
                        out.append(segment.document(doc_id))
            return iter(out)

    def postings(self, term: str):
        """Merged live postings for ``term``, or None.

        Memoized per generation: the common single-source case hands
        back the segment's zero-copy columns (or the delta's live
        ``PostingsList``) untouched; only terms split across sources or
        touched by tombstones materialize a merged view.
        """
        with self._lock:
            try:
                return self._postings_memo[term]
            except KeyError:
                pass
            sources = []
            for segment, dead in zip(self._segments, self._deleted):
                postings = segment.postings(term)
                if postings is None:
                    continue
                sources.append((postings, kill_set(postings, dead)))
            delta_postings = self._delta.postings(term)
            if delta_postings is not None:
                sources.append((delta_postings, set()))
            merged = merge_postings(term, sources)
            self._postings_memo[term] = merged
            return merged

    def document_frequency(self, term: str) -> int:
        postings = self.postings(term)
        return 0 if postings is None else len(postings)

    def norm(self, doc_id: int) -> float:
        with self._lock:
            if self._delta.has_document(doc_id):
                return self._delta.norm(doc_id)
            i = self._live_segment_index(doc_id)
            if i is None:
                raise IndexError_(f"document {doc_id} is not indexed")
            return self._segments[i].norm(doc_id)

    def snapshot(self) -> IndexSnapshot:
        """The scorer-facing statistics view, cached per generation.

        Identical in shape and values to what an in-memory
        ``InvertedIndex`` holding the same documents would produce — the
        golden-equivalence suite asserts exactly that.
        """
        with self._lock:
            snap = self._snapshot
            if snap is None or snap.generation != self._generation:
                norms: dict[int, float] = {}
                for segment, dead in zip(self._segments, self._deleted):
                    if dead:
                        for doc_id, norm in segment.norm_items():
                            if doc_id not in dead:
                                norms[doc_id] = norm
                    else:
                        norms.update(segment.norm_items())
                norms.update(self._delta.snapshot().norms)
                snap = IndexSnapshot(
                    generation=self._generation,
                    document_count=len(norms),
                    norms=norms,
                    max_norm=max(norms.values(), default=0.0),
                    max_doc_id=max(norms, default=-1),
                )
                self._snapshot = snap
            return snap

    def _vocabulary_list(self) -> list[str]:  # lint: unlocked (caller holds the lock)
        """Live terms, sorted; cached per generation.  Lock held."""
        vocab = self._vocab
        if vocab is None:
            seen = set(self._delta.vocabulary())
            any_dead = any(self._deleted)
            for segment in self._segments:
                for term in segment.vocabulary():
                    if term in seen:
                        continue
                    # With tombstones in play a segment term may have no
                    # live documents left; a dead term must not leak
                    # into fuzzy suggestion or compaction.
                    if any_dead and not self.postings(term):
                        continue
                    seen.add(term)
            vocab = self._vocab = sorted(seen)
        return vocab

    def vocabulary(self) -> Iterator[str]:
        with self._lock:
            return iter(self._vocabulary_list())

    def __len__(self) -> int:
        return self.document_count

    def __contains__(self, doc_id: object) -> bool:
        return isinstance(doc_id, int) and self.has_document(doc_id)

    # -- segment lifecycle: flush, merge, commit ---------------------------

    @property
    def segment_count(self) -> int:
        with self._lock:
            return len(self._segments)

    @property
    def mmap_bytes(self) -> int:
        """Total bytes currently memory-mapped across live segments."""
        with self._lock:
            return sum(segment.size_bytes for segment in self._segments)

    @property
    def delta_document_count(self) -> int:
        """Documents still in the in-memory delta (flushed to zero)."""
        with self._lock:
            return self._delta.document_count

    @property
    def deleted_count(self) -> int:
        """Tombstoned segment documents awaiting a merge."""
        with self._lock:
            return sum(len(dead) for dead in self._deleted)

    @property
    def last_change_id(self) -> int:
        """The repository change-log cursor recorded at the last commit."""
        with self._lock:
            return self._last_change_id

    def flush(self, last_change_id: int | None = None) -> bool:
        """Seal the delta into a new on-disk segment and commit.

        Returns True when a segment was written.  The commit (manifest
        rewrite) always happens so tombstones and the change cursor are
        durable.  **The generation does not move**: the post-swap index
        answers every query identically, so warm caches stay valid.
        """
        with self._commit_lock, self._lock:
            if self._directory is None:
                raise IndexError_(
                    "index has no segment directory; cannot flush")
            if last_change_id is not None:
                self._last_change_id = last_change_id
            wrote = False
            if self._delta.document_count:
                segment_id = self._next_id
                self._next_id += 1
                seg_path = self._directory.segment_path(segment_id)
                write_segment(seg_path, self._delta)
                segment = MmapSegment(seg_path)
                self._segments.append(segment)
                self._deleted.append(set())
                self._seg_meta.append(_file_meta(seg_path))
                self._live_seg_docs += segment.document_count
                self._delta = InvertedIndex()
                wrote = True
            # Crash-injection site: the new segment file is durable but
            # the manifest still points at the pre-flush state.
            FAULTS.hit("segments.flush.pre_commit")
            self._commit()
            return wrote

    def maybe_merge(self, policy) -> int:
        """Run at most one policy-selected merge; returns segments merged.

        The selected segments are rewritten into one (tombstoned
        documents dropped for good), the manifest commits the swap, and
        the old files are closed and swept.  Like :meth:`flush`, the
        generation is untouched — a merge is a physical rewrite with an
        identical logical index on both sides.

        Three steps, only the first and last under ``lock``: pick the
        segments and snapshot their tombstones; write, open and
        checksum the merged file; swap it in and commit.  A document
        removed from a chosen segment during the write is in the merged
        file, so its tombstone carries over to the merged segment.
        """
        with self._commit_lock:
            with self._lock:
                if self._directory is None:
                    return 0
                live = [segment.document_count - len(dead)
                        for segment, dead in zip(self._segments,
                                                 self._deleted)]
                dead_counts = [len(dead) for dead in self._deleted]
                picks = policy.select(live, dead_counts)
                if not picks:
                    return 0
                chosen = [self._segments[i] for i in picks]
                dead = [set(self._deleted[i]) for i in picks]
                view = CompactionView(chosen, dead)
                seg_path = None
                if view.document_count:
                    seg_path = self._directory.segment_path(self._next_id)
                    self._next_id += 1
            merged_segment = None
            merged_meta = None
            if seg_path is not None:
                write_segment(seg_path, view)
                merged_segment = MmapSegment(seg_path)
                try:
                    merged_meta = _file_meta(seg_path)
                except BaseException:
                    merged_segment.close()
                    raise
            with self._lock:
                # The commit lock kept every chosen segment in the list;
                # find them by identity, not position.
                now_dead = {id(segment): tombs for segment, tombs
                            in zip(self._segments, self._deleted)}
                late: set[int] = set()
                for segment, snapshot in zip(chosen, dead):
                    late |= now_dead[id(segment)] - snapshot
                picked = {id(segment) for segment in chosen}
                segments: list[MmapSegment] = []
                deleted: list[set[int]] = []
                metas: list[dict | None] = []
                for segment, tombs, meta in zip(
                        self._segments, self._deleted, self._seg_meta):
                    if id(segment) not in picked:
                        segments.append(segment)
                        deleted.append(tombs)
                        metas.append(meta)
                if merged_segment is not None:
                    segments.append(merged_segment)
                    deleted.append(late)
                    metas.append(merged_meta)
                self._segments = segments
                self._deleted = deleted
                self._seg_meta = metas
                self._live_seg_docs = sum(
                    segment.document_count - len(tombs)
                    for segment, tombs in zip(segments, deleted))
                # Crash-injection site: the merged segment is durable,
                # its inputs still referenced by the committed manifest.
                FAULTS.hit("segments.merge.pre_commit")
                self._commit()
            for segment in chosen:
                segment.close()
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

    def reopen_from_disk(self) -> bool:
        """Re-read the committed manifest and swap in its segments.

        The replica's hot-swap: after a pull commits a new manifest
        locally, this adopts it in place.  Segments already open are
        reused (their maps, and every memoized view over them, stay
        warm); vanished segments are closed best-effort.  Requires an
        empty delta — a follower never takes local writes, and a swap
        under buffered mutations would silently drop them.

        Returns True when logical content changed (the manifest's
        ``last_change_id`` moved, so the generation bumps and
        generation-keyed caches invalidate) and False for a physical-only
        swap — the primary merged, rankings are identical by
        construction, and warm caches survive per the PR 6 contract.
        """
        with self._commit_lock, self._lock:
            if self._directory is None:
                raise IndexError_(
                    "index has no segment directory; cannot reopen")
            if self._delta.document_count:
                raise IndexError_(
                    "reopen_from_disk requires an empty delta; this "
                    "index holds local writes")
            manifest = self._directory.read_manifest()
            open_by_name = {segment.path.name: i
                            for i, segment in enumerate(self._segments)}
            segments: list[MmapSegment] = []
            deleted: list[set[int]] = []
            metas: list[dict | None] = []
            reused: set[int] = set()
            for entry in manifest["segments"]:
                i = open_by_name.get(entry["file"])
                if i is None:
                    segments.append(MmapSegment(
                        self._directory.path / entry["file"]))
                else:
                    segments.append(self._segments[i])
                    reused.add(i)
                deleted.append(set(entry.get("deleted", ())))
                metas.append(_entry_meta(entry))
            dropped = [segment for i, segment in enumerate(self._segments)
                       if i not in reused]
            changed = (manifest.get("last_change_id", 0)
                       != self._last_change_id)
            self._segments = segments
            self._deleted = deleted
            self._seg_meta = metas
            self._live_seg_docs = sum(
                segment.document_count - len(dead)
                for segment, dead in zip(segments, deleted))
            self._next_id = manifest["next_id"]
            self._last_change_id = manifest.get("last_change_id", 0)
            if changed:
                self._bump()
            for segment in dropped:
                segment.close()
            return changed

    def __repr__(self) -> str:  # pragma: no cover - debug aid  # lint: unlocked (debug repr; torn reads acceptable)
        return (f"SegmentedIndex(segments={len(self._segments)}, "
                f"delta={self._delta.document_count}, "
                f"deleted={sum(len(d) for d in self._deleted)})")
