"""Doc-id-sharded segment layouts: N segment directories, one index.

A *sharded* segment directory partitions the corpus by document id::

    <dir>/SHARDS.json             {"format": 1, "shards": N}
    <dir>/shard_0000/             a normal segment directory
    <dir>/shard_0000/MANIFEST.json
    <dir>/shard_0000/seg_*.seg
    <dir>/shard_0001/...

Document ``d`` lives in shard ``d % N`` (:func:`shard_of`) — with the
repository's sequential ids this is round-robin assignment, so shards
stay balanced as the corpus grows and a streamed 100k build lands in
its final sharded layout directly, no single-segment rewrite.

:class:`ShardedSegmentIndex` is the single-process face of that layout:
the full :class:`~repro.index.inverted.InvertedIndex` protocol over N
:class:`~repro.index.segments.segmented.SegmentedIndex` handles.
Mutations route by id; reads merge.  Because shards partition the
document space, every merged statistic is exact — ``postings`` merges
per-shard columns into one doc-id-sorted view (no kill sets needed:
each shard already filtered its tombstones), ``document_frequency`` and
``document_count`` are sums, and ``snapshot()`` unions the per-shard
norms.  A searcher over the union therefore scores byte-identically to
a searcher over one flat index holding the same documents, which the
golden-equivalence suite asserts.

Generation semantics are inherited by summation: the union generation
is the sum of the shard generations, so any mutation moves it and
flushes/merges (which leave shard generations alone) do not — the same
cache contract as :class:`SegmentedIndex`.  So is the publishing rule:
the union's view (:class:`ShardedView`) is the tuple of its shards'
views, republished after every union write, and no read takes a lock.
A union commit lock, ordered before the union lock and every shard
lock, serialises the compound writers.

The same layout is what :mod:`repro.sharding` workers open one shard
of, each in its own process, for scatter-gather serving.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Iterator

from repro.errors import IndexError_, SegmentDirectoryError
from repro.index.documents import Document
from repro.index.segments.directory import (MANIFEST_NAME, RECOVERY_HINT,
                                            fsync_directory)
from repro.index.segments.merge import union_postings
from repro.index.segments.segmented import SegmentedIndex
from repro.index.segments.view import (IndexView, MemoView, SegmentStats,
                                       ViewIndex)

SHARDS_NAME = "SHARDS.json"
SHARDS_FORMAT = 1


def shard_of(doc_id: int, shard_count: int) -> int:
    """The shard holding ``doc_id``: round-robin over sequential ids."""
    return doc_id % shard_count


def shard_dir_name(shard_id: int) -> str:
    return f"shard_{shard_id:04d}"


def detect_shard_count(path: str | Path) -> int | None:
    """The shard count of an existing sharded layout, else None."""
    marker = Path(path) / SHARDS_NAME
    if not marker.exists():
        return None
    return _read_shards_marker(marker)


def _read_shards_marker(marker: Path) -> int:
    try:
        raw = marker.read_text(encoding="utf-8")
    except OSError as exc:
        raise IndexError_(f"{marker} is unreadable: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SegmentDirectoryError(
            f"{marker} is truncated or torn at line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}",
            path=str(marker), hint=RECOVERY_HINT) from exc
    if data.get("format") != SHARDS_FORMAT:
        raise IndexError_(
            f"{marker} has unsupported format {data.get('format')!r}; "
            f"expected {SHARDS_FORMAT}")
    count = data.get("shards")
    if not isinstance(count, int) or count < 1:
        raise IndexError_(f"{marker} has invalid shard count {count!r}")
    return count


def _write_shards_marker(marker: Path, shard_count: int) -> None:
    tmp = marker.with_suffix(".json.tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump({"format": SHARDS_FORMAT, "shards": shard_count}, handle,
                  indent=1)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    tmp.replace(marker)
    fsync_directory(marker.parent)


def open_segment_index(path: str | Path, shards: int | None = None,
                       create: bool = False, sweep: bool = False
                       ) -> "SegmentedIndex | ShardedSegmentIndex":
    """Open a segment directory, sharded or flat, detecting the layout.

    An existing layout wins: a ``SHARDS.json`` root opens sharded (and
    a conflicting ``shards`` request is an error, as is asking for
    shards on an existing flat directory — neither is silently
    rewritten).  On a fresh directory an explicit ``shards`` count
    creates a sharded layout — including ``shards=1``, which is a
    worker-pool layout with one shard, not a flat directory — while
    ``shards=None`` creates flat.

    ``sweep`` clears crash debris (orphan segments, ``*.tmp`` files)
    on open; only the directory's single writer may pass it.
    """
    root = Path(path)
    if (root / SHARDS_NAME).exists():
        return ShardedSegmentIndex.open(root, shards=shards, sweep=sweep)
    if (root / MANIFEST_NAME).exists():
        if shards is not None:
            raise IndexError_(
                f"{root} is an existing single-segment directory; "
                f"cannot open it with {shards} shard(s) (rebuild into "
                "a fresh directory instead)")
        return SegmentedIndex.open(root, create=create, sweep=sweep)
    if shards is not None:
        return ShardedSegmentIndex.open(root, shards=shards, create=create,
                                        sweep=sweep)
    return SegmentedIndex.open(root, create=create, sweep=sweep)


class ShardedView(MemoView):
    """A sharded union's view: the tuple of its shards' views.

    Shards partition the document space, so every merged statistic is
    exact: postings are a doc-id-ordered union of the shards'
    tombstone-filtered views, counts are sums, and the snapshot unions
    the shards' norms.
    """

    __slots__ = ("shards", "generation", "last_change_id", "document_count")

    def __init__(self, shards: tuple[IndexView, ...],
                 memos: "ShardedView | None" = None) -> None:
        super().__init__(memos)
        self.shards = shards
        self.generation = sum(shard.generation for shard in shards)
        # The laggiest shard's: after a crash between per-shard commits,
        # replaying from it re-applies a suffix of changes to the others,
        # which is idempotent (replace/remove collapse to current state).
        self.last_change_id = min(
            (shard.last_change_id for shard in shards), default=0)
        self.document_count = sum(shard.document_count for shard in shards)

    def _shard(self, doc_id: int) -> IndexView:
        return self.shards[shard_of(doc_id, len(self.shards))]

    def _merge(self, term: str):
        return union_postings(
            term, [shard.postings(term) for shard in self.shards])

    def document_frequency(self, term: str) -> int:
        """A sum over shards, so no union postings list is built."""
        return sum(shard.document_frequency(term) for shard in self.shards)

    def _norms(self) -> dict[int, float]:
        norms: dict[int, float] = {}
        for shard in self.shards:
            norms.update(shard.snapshot().norms)
        return norms

    def _live_terms(self) -> set[str]:
        return set().union(*(shard.vocabulary() for shard in self.shards))

    def has_document(self, doc_id: int) -> bool:
        return self._shard(doc_id).has_document(doc_id)

    def document(self, doc_id: int) -> Document:
        return self._shard(doc_id).document(doc_id)

    def documents(self) -> Iterator[Document]:
        for shard in self.shards:
            yield from shard.documents()

    def norm(self, doc_id: int) -> float:
        return self._shard(doc_id).norm(doc_id)


class ShardedSegmentIndex(ViewIndex, SegmentStats):
    """The ``InvertedIndex`` protocol over N doc-id-partitioned shards."""

    def __init__(self, root: Path, shards: list[SegmentedIndex]) -> None:
        self._root = root
        self._shards = shards
        self._lock = threading.RLock()
        self._depth = 0
        # Serialises the compound writers, like SegmentedIndex's: a
        # request-path epoch sync may flush while the indexer merges.
        self._commit_lock = threading.RLock()
        self._view = ShardedView(tuple(shard.view() for shard in shards))

    # -- construction ------------------------------------------------------

    @classmethod
    def open(cls, path: str | Path, shards: int | None = None,
             create: bool = False, sweep: bool = False
             ) -> "ShardedSegmentIndex":
        """Open (or, with ``create``, initialize) a sharded layout.

        ``shards`` is required to create and validated against the
        ``SHARDS.json`` marker on reopen — a layout's shard count is
        fixed for life because :func:`shard_of` routing depends on it.
        """
        root = Path(path)
        marker = root / SHARDS_NAME
        if marker.exists():
            count = _read_shards_marker(marker)
            if shards is not None and shards != count:
                raise IndexError_(
                    f"{root} was created with {count} shard(s); cannot "
                    f"reopen with {shards} (the doc-id routing would "
                    "change)")
        else:
            if not create:
                raise IndexError_(f"{root} has no {SHARDS_NAME}")
            if shards is None or shards < 1:
                raise IndexError_(
                    f"a positive shard count is required to create a "
                    f"sharded layout, got {shards!r}")
            if (root / MANIFEST_NAME).exists():
                raise IndexError_(
                    f"{root} is an existing single-segment directory; "
                    "refusing to overlay a sharded layout on it")
            root.mkdir(parents=True, exist_ok=True)
            _write_shards_marker(marker, shards)
            count = shards
        handles = [
            SegmentedIndex.open(root / shard_dir_name(i), create=True,
                                sweep=sweep)
            for i in range(count)
        ]
        return cls(root, handles)

    # -- shard accessors ---------------------------------------------------

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    def shard(self, shard_id: int) -> SegmentedIndex:
        """The shard's own index handle (single-process access)."""
        return self._shards[shard_id]

    @property
    def shard_dirs(self) -> list[Path]:
        """Per-shard segment directory paths, in shard order."""
        return [self._root / shard_dir_name(i)
                for i in range(len(self._shards))]

    def shard_for(self, doc_id: int) -> SegmentedIndex:
        return self._shards[shard_of(doc_id, len(self._shards))]

    # -- concurrency -------------------------------------------------------

    @property
    def commit_lock(self) -> threading.RLock:
        """The union's compound writers' lock (flush, merge, clear,
        reopen); ordered before the union's writers' lock and every
        shard lock.  A union batch holds every shard's writers' lock."""
        return self._commit_lock

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Hold the union's and every shard's writers' lock; each shard
        and then the union publish once, when the outermost batch
        exits."""
        with self._lock, ExitStack() as stack:
            stack.callback(self._changed)  # last: after every shard's
            for shard in self._shards:
                stack.enter_context(shard.batch())
            self._depth += 1
            try:
                yield
            finally:
                self._depth -= 1

    def _changed(self) -> None:  # lint: unlocked (caller holds the lock)
        """Publish the union of the shards' current views.  Shard
        generations only grow, so an equal sum means every shard's
        logical content is unchanged and the memos carry over."""
        if self._depth:
            return
        shards = tuple(shard.view() for shard in self._shards)
        previous = self._view
        if shards != previous.shards:
            same = (sum(shard.generation for shard in shards)
                    == previous.generation)
            self._view = ShardedView(shards,
                                     memos=previous if same else None)

    # -- mutation ----------------------------------------------------------

    def add(self, document: Document) -> None:
        with self._lock:
            self.shard_for(document.doc_id).add(document)
            self._changed()

    def remove(self, doc_id: int) -> None:
        with self._lock:
            self.shard_for(doc_id).remove(doc_id)
            self._changed()

    def replace(self, document: Document) -> None:
        with self._lock:
            self.shard_for(document.doc_id).replace(document)
            self._changed()

    def clear(self) -> None:
        with self._commit_lock, self._lock:
            for shard in self._shards:
                shard.clear()
            self._changed()

    # -- segment lifecycle -------------------------------------------------

    def _index_views(self) -> tuple:
        return self._view.shards

    def flush(self, last_change_id: int | None = None) -> bool:
        """Flush every shard's delta; returns True if any shard wrote.

        All shards commit the same change-log cursor.  Holds the
        union's commit lock, not its writers' lock: each shard swaps
        under its own, and the union publishes once at the end.
        """
        with self._commit_lock:
            wrote = False
            for shard in self._shards:
                if shard.flush(last_change_id=last_change_id):
                    wrote = True
            with self._lock:
                self._changed()
            return wrote

    def maybe_merge(self, policy) -> int:
        """Offer each shard one policy-selected merge; returns total
        segments merged across shards.  Like :meth:`flush`, holds only
        the union's commit lock while the shards rewrite."""
        with self._commit_lock:
            merged = sum(shard.maybe_merge(policy)
                         for shard in self._shards)
            with self._lock:
                self._changed()
            return merged

    def reopen_from_disk(self) -> bool:
        """Re-read every shard's committed manifest and publish the
        union of their new views.  Returns True when any shard's
        logical content changed."""
        with self._commit_lock, self._lock:
            changed = False
            for shard in self._shards:
                if shard.reopen_from_disk():
                    changed = True
            self._changed()
            return changed
