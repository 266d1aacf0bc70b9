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
cache contract as :class:`SegmentedIndex`.  So is the locking rule: a
union commit lock, ordered before the union lock and every shard lock,
serialises the compound writers, and flushes and merges never hold the
union lock that every union read takes.

The same layout is what :mod:`repro.sharding` workers open one shard
of, each in its own process, for scatter-gather serving.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Iterator

from repro.errors import IndexError_, SegmentDirectoryError
from repro.index.documents import Document
from repro.index.inverted import IndexSnapshot
from repro.index.segments.directory import MANIFEST_NAME, RECOVERY_HINT
from repro.index.segments.merge import merge_postings
from repro.index.segments.segmented import SegmentedIndex

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


class ShardRoot:
    """The filesystem root of a sharded layout (directory-protocol stub).

    Exists so ``index.directory is None`` keeps meaning "nowhere to
    flush" across flat and sharded indexes.
    """

    def __init__(self, path: Path) -> None:
        self.path = Path(path)

    @property
    def marker_path(self) -> Path:
        return self.path / SHARDS_NAME


class ShardedSegmentIndex:
    """The ``InvertedIndex`` protocol over N doc-id-partitioned shards."""

    def __init__(self, root: ShardRoot,
                 shards: list[SegmentedIndex]) -> None:
        self._root = root
        self._shards = shards
        self._lock = threading.RLock()
        # Serialises the compound writers, like SegmentedIndex's: a
        # request-path epoch sync may flush while the indexer merges.
        self._commit_lock = threading.RLock()
        self._memo_generation = -1
        self._postings_memo: dict[str, object] = {}
        self._snapshot: IndexSnapshot | None = None
        self._vocab: list[str] | None = None

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
        return cls(ShardRoot(root), handles)

    # -- shard accessors ---------------------------------------------------

    @property
    def shard_count(self) -> int:  # lint: unlocked (set once in the constructor)
        return len(self._shards)

    def shard(self, shard_id: int) -> SegmentedIndex:
        """The shard's own index handle (single-process access)."""
        return self._shards[shard_id]

    @property
    def shard_dirs(self) -> list[Path]:
        """Per-shard segment directory paths, in shard order."""
        return [self._root.path / shard_dir_name(i)
                for i in range(len(self._shards))]

    def shard_for(self, doc_id: int) -> SegmentedIndex:
        return self._shards[shard_of(doc_id, len(self._shards))]

    # -- concurrency / invalidation ---------------------------------------

    @property
    def generation(self) -> int:  # lint: unlocked (sum of GIL-atomic shard reads; mirrors SegmentedIndex.generation)
        """Sum of shard generations: moves on any mutation, never on a
        flush or merge — the cache-invalidation contract readers rely
        on."""
        return sum(shard.generation for shard in self._shards)

    @property
    def lock(self) -> threading.RLock:
        """The union's mutation lock (ordered before any shard lock)."""
        return self._lock

    @property
    def commit_lock(self) -> threading.RLock:
        """The union's writers' lock (flush, merge, clear, reopen);
        ordered before :attr:`lock` and every shard lock, never taken
        by readers."""
        return self._commit_lock

    @property
    def directory(self) -> ShardRoot:  # lint: unlocked (set once in the constructor)
        """The sharded layout root (never None: sharded layouts are
        always directory-backed)."""
        return self._root

    def _memos(self) -> dict[str, object]:  # lint: unlocked (caller holds the lock)
        """The postings memo for the current generation.  Lock held."""
        generation = self.generation
        if generation != self._memo_generation:
            self._postings_memo = {}
            self._snapshot = None
            self._vocab = None
            self._memo_generation = generation
        return self._postings_memo

    # -- mutation ----------------------------------------------------------

    def add(self, document: Document) -> None:
        with self._lock:
            self.shard_for(document.doc_id).add(document)

    def remove(self, doc_id: int) -> None:
        with self._lock:
            self.shard_for(doc_id).remove(doc_id)

    def replace(self, document: Document) -> None:
        with self._lock:
            self.shard_for(document.doc_id).replace(document)

    def clear(self) -> None:
        with self._commit_lock, self._lock:
            for shard in self._shards:
                shard.clear()

    # -- statistics --------------------------------------------------------

    @property
    def document_count(self) -> int:
        with self._lock:
            return sum(shard.document_count for shard in self._shards)

    @property
    def term_count(self) -> int:
        with self._lock:
            return len(self._vocabulary_list())

    def has_document(self, doc_id: int) -> bool:
        with self._lock:
            return self.shard_for(doc_id).has_document(doc_id)

    def document(self, doc_id: int) -> Document:
        with self._lock:
            return self.shard_for(doc_id).document(doc_id)

    def documents(self) -> Iterator[Document]:
        with self._lock:
            out: list[Document] = []
            for shard in self._shards:
                out.extend(shard.documents())
            return iter(out)

    def postings(self, term: str):
        """Merged live postings for ``term`` across shards, or None.

        Shards partition the doc-id space, so the merge is a pure
        doc-id-ordered union of already-tombstone-filtered per-shard
        views — kill sets stay empty and the single-source case passes
        through zero-copy.  Memoized per generation.
        """
        with self._lock:
            memo = self._memos()
            try:
                return memo[term]
            except KeyError:
                pass
            sources = []
            for shard in self._shards:
                postings = shard.postings(term)
                if postings is not None:
                    sources.append((postings, set()))
            merged = merge_postings(term, sources)
            memo[term] = merged
            return merged

    def document_frequency(self, term: str) -> int:
        postings = self.postings(term)
        return 0 if postings is None else len(postings)

    def norm(self, doc_id: int) -> float:
        with self._lock:
            return self.shard_for(doc_id).norm(doc_id)

    def snapshot(self) -> IndexSnapshot:
        """The scorer-facing statistics view, cached per generation.

        Unions the per-shard norms; identical in shape and values to a
        flat index holding the same documents.
        """
        with self._lock:
            self._memos()
            snap = self._snapshot
            if snap is None:
                norms: dict[int, float] = {}
                for shard in self._shards:
                    norms.update(shard.snapshot().norms)
                snap = IndexSnapshot(
                    generation=self._memo_generation,
                    document_count=len(norms),
                    norms=norms,
                    max_norm=max(norms.values(), default=0.0),
                    max_doc_id=max(norms, default=-1),
                )
                self._snapshot = snap
            return snap

    def _vocabulary_list(self) -> list[str]:  # lint: unlocked (caller holds the lock)
        self._memos()
        vocab = self._vocab
        if vocab is None:
            seen: set[str] = set()
            for shard in self._shards:
                seen.update(shard.vocabulary())
            vocab = self._vocab = sorted(seen)
        return vocab

    def vocabulary(self) -> Iterator[str]:
        with self._lock:
            return iter(self._vocabulary_list())

    def __len__(self) -> int:
        return self.document_count

    def __contains__(self, doc_id: object) -> bool:
        return isinstance(doc_id, int) and self.has_document(doc_id)

    # -- segment lifecycle -------------------------------------------------

    @property
    def segment_count(self) -> int:
        with self._lock:
            return sum(shard.segment_count for shard in self._shards)

    @property
    def mmap_bytes(self) -> int:
        with self._lock:
            return sum(shard.mmap_bytes for shard in self._shards)

    @property
    def delta_document_count(self) -> int:
        with self._lock:
            return sum(shard.delta_document_count
                       for shard in self._shards)

    @property
    def deleted_count(self) -> int:
        with self._lock:
            return sum(shard.deleted_count for shard in self._shards)

    @property
    def last_change_id(self) -> int:
        """The change-log cursor the whole layout durably reflects.

        The minimum across shards: after a crash between per-shard
        commits, replaying from the laggiest shard's cursor re-applies
        a suffix of changes to the others, which is idempotent
        (replace/remove collapse to current state).
        """
        with self._lock:
            return min((shard.last_change_id for shard in self._shards),
                       default=0)

    def flush(self, last_change_id: int | None = None) -> bool:
        """Flush every shard's delta; returns True if any shard wrote.

        All shards commit the same change-log cursor, so on a clean
        flush :attr:`last_change_id` advances atomically from the
        reader's point of view.  Holds the union's commit lock, not its
        read lock: each shard swaps under its own.
        """
        with self._commit_lock:
            wrote = False
            for shard in self._shards:
                if shard.flush(last_change_id=last_change_id):
                    wrote = True
            return wrote

    def maybe_merge(self, policy) -> int:
        """Offer each shard one policy-selected merge; returns total
        segments merged across shards.  Like :meth:`flush`, never holds
        the union's read lock, so union searches run during the
        rewrites."""
        with self._commit_lock:
            return sum(shard.maybe_merge(policy)
                       for shard in self._shards)

    def reopen_from_disk(self) -> bool:
        """Re-read every shard's committed manifest and swap in place.

        The replica hot-swap for sharded layouts: each shard reopens
        independently (reusing already-open maps), and the union's
        generation-keyed memos invalidate automatically iff any shard's
        logical content moved, because the union generation is the sum
        of shard generations.  Returns True when any shard changed.
        """
        with self._commit_lock, self._lock:
            changed = False
            for shard in self._shards:
                if shard.reopen_from_disk():
                    changed = True
            return changed

    def __repr__(self) -> str:  # pragma: no cover - debug aid  # lint: unlocked (debug repr; torn reads acceptable)
        return (f"ShardedSegmentIndex(shards={len(self._shards)}, "
                f"documents={self.document_count})")
