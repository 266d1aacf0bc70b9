"""Point-in-time index views: the one read implementation.

An :class:`IndexView` is one published index state — immutable
segments, their tombstone frozensets and a frozen delta, stamped with
its ``generation`` and change-log cursor — and answers every index
read without a lock.  The in-memory index's views have no segments; a
sharded union's view is the tuple of its shards' views.  Writers
publish views by read-copy-update (change private state under their
lock, swap one reference); a search pins one view for its whole run.
Memos live and die with their view, so a retired segment is unmapped
when the last view holding it is dropped.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from repro.errors import IndexError_
from repro.index.documents import Document
from repro.index.postings import PostingsList
from repro.index.segments.merge import kill_set, merge_postings


@dataclass(frozen=True, slots=True)
class IndexSnapshot:
    """The scorer-facing statistics of one view, stamped with its
    generation.  ``norms`` is a plain dict: the retrieval hot loop does
    ``norms[doc_id]``, not the exception-raising accessor."""

    generation: int
    document_count: int
    norms: dict[int, float]
    #: Largest norm in the corpus (upper-bounds any score contribution).
    max_norm: float
    #: Largest doc id (sizes the searcher's dense accumulators).
    max_doc_id: int

    @classmethod
    def of(cls, generation: int, norms: dict[int, float]) -> "IndexSnapshot":
        return cls(generation=generation, document_count=len(norms),
                   norms=norms, max_norm=max(norms.values(), default=0.0),
                   max_doc_id=max(norms, default=-1))


class FrozenDelta(NamedTuple):
    """A delta as a view holds it: dicts no writer touches again."""

    terms: dict[str, PostingsList]
    documents: dict[int, Document]
    norms: dict[int, float]


EMPTY_DELTA = FrozenDelta({}, {}, {})


class DeltaWriter:
    """The writer side of an in-memory delta, copy-on-write.

    A postings list that a published view holds is never mutated: the
    first change to a term after :meth:`freeze` copies its list, so a
    batch copies only the postings it touches (the term, document and
    norm dicts themselves are copied by reference).
    """

    __slots__ = ("terms", "documents", "norms", "_owned")

    def __init__(self) -> None:
        self.terms: dict[str, PostingsList] = {}
        self.documents: dict[int, Document] = {}
        self.norms: dict[int, float] = {}
        #: Terms whose postings list no view holds yet.
        self._owned: set[str] = set()

    def _writable(self, term: str) -> PostingsList:
        postings = self.terms.get(term)
        if postings is None:
            postings = self.terms[term] = PostingsList(term)
        elif term not in self._owned:
            postings = self.terms[term] = postings.copy()
        self._owned.add(term)
        return postings

    def add(self, document: Document) -> None:
        """Index a document the caller checked is not present."""
        doc_id = document.doc_id
        self.documents[doc_id] = document
        terms, owned = self.terms, self._owned
        for position, term in enumerate(document.terms):
            postings = terms[term] if term in owned else self._writable(term)
            postings.add(doc_id, position)
        # Lucene-classic length norm: 1/sqrt(numTerms).
        self.norms[doc_id] = 1.0 / math.sqrt(max(document.length, 1))

    def remove(self, doc_id: int) -> None:
        """Drop a document the caller checked is present."""
        document = self.documents.pop(doc_id)
        del self.norms[doc_id]
        for term in set(document.terms):
            postings = self._writable(term)
            postings.remove_document(doc_id)
            if not postings:
                del self.terms[term]
                self._owned.discard(term)

    def freeze(self) -> FrozenDelta:
        """The current state for a view; later writes copy first."""
        self._owned.clear()
        return FrozenDelta(dict(self.terms), dict(self.documents),
                           dict(self.norms))


class MemoView:
    """What every view derives from its sources, memoised per view.

    Subclasses supply ``generation`` and ``document_count``, the
    per-document reads, and three builders: ``_merge`` (one term's live
    postings), ``_norms`` and ``_live_terms``.  Memo fills race
    harmlessly: two readers build the same value.  ``memos`` (a view
    with the same logical content, i.e. the one before a flush or a
    merge) hands over the snapshot and vocabulary; postings memos hold
    segment memory, so they are never inherited.
    """

    __slots__ = ("_postings", "_snapshot", "_vocab", "__weakref__")

    def __init__(self, memos: "MemoView | None") -> None:
        self._postings: dict[str, object] = {}
        self._snapshot = memos._snapshot if memos is not None else None
        self._vocab = memos._vocab if memos is not None else None

    def postings(self, term: str):
        """Live postings for ``term``, or None."""
        try:
            return self._postings[term]
        except KeyError:
            merged = self._postings[term] = self._merge(term)
            return merged

    def document_frequency(self, term: str) -> int:
        postings = self.postings(term)
        return 0 if postings is None else len(postings)

    def snapshot(self) -> IndexSnapshot:
        """The scorer-facing statistics, built once per logical state;
        identical in shape and values whatever the physical layout."""
        snap = self._snapshot
        if snap is None:
            snap = self._snapshot = IndexSnapshot.of(self.generation,
                                                     self._norms())
        return snap

    def _vocabulary_list(self) -> list[str]:
        vocab = self._vocab
        if vocab is None:
            vocab = self._vocab = sorted(self._live_terms())
        return vocab

    def vocabulary(self) -> Iterator[str]:
        """Live terms, sorted."""
        return iter(self._vocabulary_list())

    @property
    def term_count(self) -> int:
        return len(self._vocabulary_list())

    def __len__(self) -> int:
        return self.document_count

    def __contains__(self, doc_id: object) -> bool:
        return isinstance(doc_id, int) and self.has_document(doc_id)


class IndexView(MemoView):
    """One published index state: segments, tombstones and a delta.

    ``committed`` says the view equals what the segment directory's
    manifest records at ``last_change_id`` (no unflushed mutation),
    which is when a shard worker that reopened at that cursor serves
    exactly this view.  ``last_change_id`` is None for an index that
    records no cursor (the in-memory one).
    """

    __slots__ = ("generation", "last_change_id", "committed", "segments",
                 "deleted", "delta", "document_count")

    def __init__(self, generation: int = 0,
                 last_change_id: int | None = None, *,
                 segments: tuple = (), deleted: tuple = (),
                 delta: FrozenDelta = EMPTY_DELTA, committed: bool = True,
                 memos: "IndexView | None" = None) -> None:
        super().__init__(memos)
        self.generation = generation
        self.last_change_id = last_change_id
        self.committed = committed
        self.segments = segments
        self.deleted = deleted
        self.delta = delta
        self.document_count = len(delta.documents) + sum(
            segment.document_count - len(dead)
            for segment, dead in zip(segments, deleted))

    def postings(self, term: str):
        if not self.segments:  # the delta's own list: nothing to merge
            return self.delta.terms.get(term)
        return super().postings(term)

    def _merge(self, term: str):
        """The tombstone-filtered merge over segments and delta; the
        single-source case is the source's own (zero-copy) columns."""
        sources = []
        for segment, dead in zip(self.segments, self.deleted):
            postings = segment.postings(term)
            if postings is not None:
                sources.append((postings, kill_set(postings, dead)))
        delta_postings = self.delta.terms.get(term)
        if delta_postings is not None:
            sources.append((delta_postings, set()))
        return merge_postings(term, sources)

    def _norms(self) -> dict[int, float]:
        if not self.segments:
            return self.delta.norms
        norms: dict[int, float] = {}
        for segment, dead in zip(self.segments, self.deleted):
            if dead:
                norms.update(item for item in segment.norm_items()
                             if item[0] not in dead)
            else:
                norms.update(segment.norm_items())
        norms.update(self.delta.norms)
        return norms

    def _live_terms(self) -> set[str]:
        seen = set(self.delta.terms)
        any_dead = any(self.deleted)
        for segment in self.segments:
            for term in segment.vocabulary():
                if term in seen:
                    continue
                # With tombstones in play a segment term may have no
                # live documents left; a dead term must not leak into
                # fuzzy suggestion or compaction.
                if any_dead and not self.postings(term):
                    continue
                seen.add(term)
        return seen

    def _segment_of(self, doc_id: int):
        """The segment holding the *live* copy of ``doc_id``, or None.

        Newest-first: a replaced document leaves a tombstoned copy in an
        older segment and a live copy in a newer one.
        """
        for i in range(len(self.segments) - 1, -1, -1):
            if (doc_id not in self.deleted[i]
                    and self.segments[i].has_document(doc_id)):
                return self.segments[i]
        return None

    def has_document(self, doc_id: int) -> bool:
        return (doc_id in self.delta.documents
                or self._segment_of(doc_id) is not None)

    def document(self, doc_id: int) -> Document:
        document = self.delta.documents.get(doc_id)
        if document is not None:
            return document
        segment = self._segment_of(doc_id)
        if segment is None:
            raise IndexError_(f"document {doc_id} is not indexed")
        return segment.document(doc_id)

    def documents(self) -> Iterator[Document]:
        yield from self.delta.documents.values()
        for segment, dead in zip(self.segments, self.deleted):
            for doc_id in segment.doc_ids():
                if doc_id not in dead:
                    yield segment.document(doc_id)

    def norm(self, doc_id: int) -> float:
        norm = self.delta.norms.get(doc_id)
        if norm is not None:
            return norm
        segment = self._segment_of(doc_id)
        if segment is None:
            raise IndexError_(f"document {doc_id} is not indexed")
        return segment.norm(doc_id)


class ViewIndex:
    """An index that publishes views; every read reads the current one.

    A caller that needs several reads to agree pins :meth:`view` and
    reads that.  No read takes a lock.  Writers hold the (re-entrant)
    writers' lock; each mutator publishes when done (``_changed``),
    except inside a :meth:`batch`, which publishes once on its
    outermost exit.  Subclasses own ``_view``, ``_lock``, ``_depth``
    and ``_changed``.
    """

    _view: "IndexView"
    _lock: threading.RLock
    _depth: int

    def _changed(self) -> None:  # pragma: no cover - subclass hook
        raise NotImplementedError

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Hold the writers' lock; publish one view when the outermost
        batch exits."""
        with self._lock:
            self._depth += 1
            try:
                yield
            finally:
                self._depth -= 1
                self._changed()

    def view(self):
        """The current published view (pin it for a consistent read)."""
        return self._view

    @property
    def generation(self) -> int:
        """Bumped on every mutation; never decreases.  Flushes and
        merges keep it: they preserve every ranking."""
        return self._view.generation

    @property
    def document_count(self) -> int:
        return self._view.document_count

    @property
    def term_count(self) -> int:
        return self._view.term_count

    def has_document(self, doc_id: int) -> bool:
        return self._view.has_document(doc_id)

    def document(self, doc_id: int) -> Document:
        return self._view.document(doc_id)

    def documents(self) -> Iterator[Document]:
        return iter(list(self._view.documents()))

    def postings(self, term: str):
        return self._view.postings(term)

    def document_frequency(self, term: str) -> int:
        return self._view.document_frequency(term)

    def norm(self, doc_id: int) -> float:
        return self._view.norm(doc_id)

    def snapshot(self) -> IndexSnapshot:
        return self._view.snapshot()

    def vocabulary(self) -> Iterator[str]:
        return self._view.vocabulary()

    def __len__(self) -> int:
        return self._view.document_count

    def __contains__(self, doc_id: object) -> bool:
        return doc_id in self._view


class SegmentStats:
    """The segment topology of a segment index's current view, for
    gauges and operators; ``_index_views`` are its per-shard views."""

    _view: "IndexView"

    def _index_views(self) -> tuple:  # pragma: no cover - subclass hook
        raise NotImplementedError

    @property
    def segment_count(self) -> int:
        return sum(len(view.segments) for view in self._index_views())

    @property
    def mmap_bytes(self) -> int:
        """Bytes memory-mapped across the current view's segments."""
        return sum(segment.size_bytes for view in self._index_views()
                   for segment in view.segments)

    @property
    def delta_document_count(self) -> int:
        """Documents still in the in-memory delta (flushed to zero)."""
        return sum(len(view.delta.documents)
                   for view in self._index_views())

    @property
    def deleted_count(self) -> int:
        """Tombstoned segment documents awaiting a merge."""
        return sum(len(dead) for view in self._index_views()
                   for dead in view.deleted)

    @property
    def last_change_id(self) -> int:
        """The change-log cursor the committed layout reflects (for a
        sharded layout, the laggiest shard's)."""
        return self._view.last_change_id
