"""The in-memory inverted index: term dictionary + document store + norms."""

from __future__ import annotations

import threading

from repro.errors import IndexError_
from repro.index.documents import Document
from repro.index.segments.view import (DeltaWriter, IndexSnapshot,
                                       IndexView, ViewIndex)

__all__ = ["IndexSnapshot", "InvertedIndex"]


class InvertedIndex(ViewIndex):
    """Term dictionary with postings plus a document store, in memory.

    Supports add / remove / replace so the repository's scheduled
    indexer can apply incremental updates.  All statistics the scorer
    needs (document frequency, term frequency, document count, length
    norms) are served from its published
    :class:`~repro.index.segments.view.IndexView`, which has no
    segments: the whole index is its delta.  Every mutation bumps a
    monotonically increasing ``generation``.
    """

    def __init__(self) -> None:
        self._delta = DeltaWriter()
        self._generation = 0
        self._lock = threading.RLock()
        self._depth = 0
        self._view = IndexView()

    def _changed(self) -> None:  # lint: unlocked (caller holds the lock)
        if not self._depth and self._generation != self._view.generation:
            self._view = IndexView(self._generation,
                                   delta=self._delta.freeze())

    # -- mutation ----------------------------------------------------------

    def _add(self, document: Document) -> None:  # lint: unlocked (caller holds the lock)
        if document.doc_id in self._delta.documents:
            raise IndexError_(
                f"document {document.doc_id} already indexed; "
                "use replace()")
        self._delta.add(document)
        self._generation += 1

    def _remove(self, doc_id: int) -> None:  # lint: unlocked (caller holds the lock)
        if doc_id not in self._delta.documents:
            raise IndexError_(f"document {doc_id} is not indexed")
        self._delta.remove(doc_id)
        self._generation += 1

    def add(self, document: Document) -> None:
        """Index a document.  Re-adding an existing id is an error; use
        :meth:`replace` for updates so stale postings are cleaned up."""
        with self._lock:
            self._add(document)
            self._changed()

    def remove(self, doc_id: int) -> None:
        """Remove a document and every posting that references it."""
        with self._lock:
            self._remove(doc_id)
            self._changed()

    def replace(self, document: Document) -> None:
        """Update a document in place (remove + add), published once."""
        with self._lock:
            if document.doc_id in self._delta.documents:
                self._remove(document.doc_id)
            self._add(document)
            self._changed()

    def clear(self) -> None:
        with self._lock:
            self._delta = DeltaWriter()
            self._generation += 1
            self._changed()
