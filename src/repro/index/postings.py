"""Postings: per-term occurrence data, packed for the search hot path.

A :class:`PostingsList` maps one dictionary term to the documents it
occurs in.  The representation is array-backed: two parallel
``array('q')`` columns hold the sorted doc ids and their term
frequencies, while token positions (the index's proximity data) live
out-of-line in a dict keyed by doc id.  The searcher iterates the packed
columns directly — no per-posting object construction — and membership
tests bisect the maintained sorted doc-id view instead of rebuilding it.

Two statistics are kept up to date through add/remove so retrieval can
read them in O(1):

* ``collection_frequency`` — total occurrences across documents,
  maintained incrementally instead of re-summed per call;
* ``max_frequency`` — the largest term frequency in any document (the
  *max-impact* statistic), which upper-bounds the score contribution a
  posting can make and lets the pruned searcher skip whole lists.

:class:`Posting` remains the per-document view object for callers that
want positions; it is materialized on demand and shares the live
positions list (treat it as read-only — mutate through :meth:`add`).
Bulk consumers (the segment writer) skip it: every postings type hands
out its term's positions as one doc-major column
(:meth:`PostingsList.positions_array`), and :func:`position_offsets`
locates each posting's run inside it.
"""

from __future__ import annotations

import bisect
from array import array
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator


@dataclass(slots=True)
class Posting:
    """Occurrences of one term in one document (materialized view)."""

    doc_id: int
    positions: list[int]

    @property
    def frequency(self) -> int:
        return len(self.positions)


def position_offsets(freqs) -> list[int]:
    """Where each posting's positions start in a doc-major positions
    column, plus the column's end: the prefix sums of ``freqs``."""
    return list(accumulate(freqs, initial=0))


def postings_from_columns(doc_ids, freqs, positions) -> list[Posting]:
    """Per-document views over packed columns (one pass, O(cf))."""
    out = []
    start = 0
    for doc_id, freq in zip(doc_ids, freqs):
        out.append(Posting(doc_id, list(positions[start:start + freq])))
        start += freq
    return out


class PostingsList:
    """All postings of one term, sorted by document id (packed)."""

    __slots__ = ("term", "_doc_ids", "_freqs", "_positions",
                 "_collection_frequency", "_max_frequency", "_max_stale")

    def __init__(self, term: str) -> None:
        self.term = term
        self._doc_ids: array = array("q")
        self._freqs: array = array("q")
        self._positions: dict[int, list[int]] = {}
        self._collection_frequency = 0
        self._max_frequency = 0
        self._max_stale = False

    # -- statistics --------------------------------------------------------

    @property
    def document_frequency(self) -> int:
        """Number of documents containing the term (df)."""
        return len(self._doc_ids)

    @property
    def collection_frequency(self) -> int:
        """Total occurrences across all documents (cf); O(1), cached."""
        return self._collection_frequency

    @property
    def max_frequency(self) -> int:
        """Largest per-document term frequency (the max-impact bound).

        Maintained through :meth:`add`; a removal of the current maximum
        marks the statistic stale and the next read recomputes it in one
        pass over the packed frequency column.
        """
        if self._max_stale:
            self._max_frequency = max(self._freqs, default=0)
            self._max_stale = False
        return self._max_frequency

    # -- packed views ------------------------------------------------------

    def doc_ids_array(self) -> array:
        """The sorted doc-id column itself.  Read-only by convention."""
        return self._doc_ids

    def frequencies_array(self) -> array:
        """The frequency column parallel to :meth:`doc_ids_array`."""
        return self._freqs

    def positions_array(self) -> array:
        """Every posting's positions, concatenated in doc-id order."""
        column = array("q")
        positions = self._positions
        for doc_id in self._doc_ids:
            column.extend(positions[doc_id])
        return column

    @property
    def postings(self) -> list[Posting]:
        """Materialized per-document views, sorted by doc id (O(df))."""
        return [Posting(doc_id, self._positions[doc_id])
                for doc_id in self._doc_ids]

    def _find(self, doc_id: int) -> int | None:
        """Index of ``doc_id`` in the packed columns, or None.

        Bisects the maintained sorted doc-id array directly — no
        per-lookup list rebuild.
        """
        ids = self._doc_ids
        i = bisect.bisect_left(ids, doc_id)
        if i < len(ids) and ids[i] == doc_id:
            return i
        return None

    def copy(self) -> "PostingsList":
        """An independent copy (the positions lists are shared: a
        document's positions are written once, when it is added)."""
        clone = PostingsList(self.term)
        clone._doc_ids = array("q", self._doc_ids)
        clone._freqs = array("q", self._freqs)
        clone._positions = dict(self._positions)
        clone._collection_frequency = self._collection_frequency
        # A reader refreshing a stale maximum writes it before clearing
        # the flag, so reading the flag first never pairs a cleared flag
        # with the old maximum.
        clone._max_stale = self._max_stale
        clone._max_frequency = self._max_frequency
        return clone

    # -- mutation ----------------------------------------------------------

    def add(self, doc_id: int, position: int) -> None:
        """Record one occurrence; creates the posting on first sight.

        Appending in non-decreasing doc-id order (the bulk-indexing
        pattern) is O(1); out-of-order insertion falls back to a binary
        search plus an array insert.
        """
        ids = self._doc_ids
        n = len(ids)
        if n and ids[n - 1] == doc_id:
            i = n - 1
        elif not n or ids[n - 1] < doc_id:
            ids.append(doc_id)
            self._freqs.append(0)
            self._positions[doc_id] = []
            i = n
        else:
            i = bisect.bisect_left(ids, doc_id)
            if i == len(ids) or ids[i] != doc_id:
                ids.insert(i, doc_id)
                self._freqs.insert(i, 0)
                self._positions[doc_id] = []
        self._positions[doc_id].append(position)
        freq = self._freqs[i] + 1
        self._freqs[i] = freq
        self._collection_frequency += 1
        if not self._max_stale and freq > self._max_frequency:
            self._max_frequency = freq

    def remove_document(self, doc_id: int) -> bool:
        """Drop the posting for ``doc_id``; True when one existed."""
        i = self._find(doc_id)
        if i is None:
            return False
        freq = self._freqs[i]
        self._collection_frequency -= freq
        del self._doc_ids[i]
        del self._freqs[i]
        del self._positions[doc_id]
        if not self._max_stale and freq >= self._max_frequency:
            self._max_stale = True
        return True

    # -- lookup ------------------------------------------------------------

    def get(self, doc_id: int) -> Posting | None:
        i = self._find(doc_id)
        if i is None:
            return None
        return Posting(doc_id, self._positions[doc_id])

    def frequency(self, doc_id: int) -> int:
        """Term frequency in ``doc_id``; 0 when absent.  O(log df)."""
        i = self._find(doc_id)
        return 0 if i is None else self._freqs[i]

    def doc_ids(self) -> list[int]:
        return list(self._doc_ids)

    def __iter__(self) -> Iterator[Posting]:
        for doc_id in self._doc_ids:
            yield Posting(doc_id, self._positions[doc_id])

    def __len__(self) -> int:
        return len(self._doc_ids)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"PostingsList(term={self.term!r}, "
                f"df={len(self._doc_ids)}, cf={self._collection_frequency})")
