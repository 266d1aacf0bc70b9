"""Merge machinery: multi-source postings views and merge policies.

Two concerns live here.  :func:`merge_postings` combines one term's
postings across several sources (mmapped segments and the in-memory
delta) while filtering tombstoned documents — the single-source,
no-tombstone case passes the source's zero-copy view straight through.
:class:`TieredMergePolicy` decides *when* segments should be rewritten:
segments are bucketed into size tiers (powers of ``tier_factor`` over a
floor) and a tier that collects more than ``max_per_tier`` members gets
merged, so write amplification stays logarithmic in corpus size while
the segment count stays bounded.  A segment whose tombstones exceed
``max_dead_fraction`` is rewritten regardless, which is how deleted
postings eventually leave the disk.

A merge streams packed columns end to end.  Each source's live doc ids
form sorted *runs* (tombstones split them); :func:`merge_postings`
interleaves the runs by a k-way merge on their heads and copies each
run's doc-id and frequency slices whole, and :class:`MergedPostings`
gathers the same runs out of the sources' positions columns when a
writer asks.  :class:`CompactionView` walks every input segment's
sorted term dictionary once, in step, decoding each dictionary once
for both the walk and the document store.  Nothing builds an object
per posting, so a merge costs O(columns copied + runs · log k).  Its
output is exactly what
:func:`~repro.index.segments.format.write_segment` writes for a fresh
in-memory index over the same live documents.  The round-robin shard
union, where runs would be one per posting, is ordered by one sort
instead (:func:`union_postings`).
"""

from __future__ import annotations

import bisect
import heapq
from array import array
from dataclasses import dataclass
from itertools import accumulate, chain, groupby, repeat
from typing import Iterator

from repro.errors import IndexError_
from repro.index.documents import Document
from repro.index.postings import (Posting, position_offsets,
                                  postings_from_columns)


class MergedPostings:
    """One term's postings merged across sources, tombstones applied.

    Presents the same read API as
    :class:`~repro.index.postings.PostingsList`.  The doc-id and
    frequency columns are materialized packed arrays; ``runs`` lists
    which ``(source, start, stop)`` slice each stretch of them came
    from, in output order, so positions resolve through the sources —
    as one gathered column (:meth:`positions_array`) or per document
    (:meth:`get`) — and the search path never pays for them.
    """

    __slots__ = ("term", "_doc_ids", "_freqs", "_sources", "_runs",
                 "_run_offsets", "_collection_frequency", "_max_frequency")

    def __init__(self, term: str, doc_ids: array, freqs: array,
                 sources: list, runs: list[tuple[int, int, int]]) -> None:
        self.term = term
        self._doc_ids = doc_ids
        self._freqs = freqs
        self._sources = sources
        self._runs = runs
        self._run_offsets: list[int] | None = None
        self._collection_frequency = sum(freqs)
        self._max_frequency = max(freqs, default=0)

    @property
    def document_frequency(self) -> int:
        return len(self._doc_ids)

    @property
    def collection_frequency(self) -> int:
        return self._collection_frequency

    @property
    def max_frequency(self) -> int:
        return self._max_frequency

    def doc_ids_array(self) -> array:
        return self._doc_ids

    def frequencies_array(self) -> array:
        return self._freqs

    def positions_array(self) -> array:
        """The merged doc-major positions column, gathered run by run.

        Each source's position offsets are prefix-summed once (O(df)),
        then every run is one slice copy.
        """
        column = bytearray()
        gathered: dict[int, tuple] = {}
        for source, start, stop in self._runs:
            try:
                positions, offsets = gathered[source]
            except KeyError:
                postings = self._sources[source]
                positions = postings.positions_array()
                offsets = position_offsets(postings.frequencies_array())
                gathered[source] = positions, offsets
            column += positions[offsets[start]:offsets[stop]]
        positions = array("q")
        positions.frombytes(column)
        return positions

    @property
    def postings(self) -> list[Posting]:
        return postings_from_columns(self._doc_ids, self._freqs,
                                     self.positions_array())

    def _find(self, doc_id: int) -> int | None:
        ids = self._doc_ids
        i = bisect.bisect_left(ids, doc_id)
        if i < len(ids) and ids[i] == doc_id:
            return i
        return None

    def get(self, doc_id: int) -> Posting | None:
        """The source's posting for ``doc_id``; the output offset of
        every run is summed once, on the first call."""
        i = self._find(doc_id)
        if i is None:
            return None
        offsets = self._run_offsets
        if offsets is None:
            offsets = self._run_offsets = list(accumulate(
                (stop - start for _, start, stop in self._runs), initial=0))
        source = self._runs[bisect.bisect_right(offsets, i) - 1][0]
        return self._sources[source].get(doc_id)

    def frequency(self, doc_id: int) -> int:
        i = self._find(doc_id)
        return 0 if i is None else self._freqs[i]

    def doc_ids(self) -> list[int]:
        return list(self._doc_ids)

    def __iter__(self) -> Iterator[Posting]:
        return iter(self.postings)

    def __len__(self) -> int:
        return len(self._doc_ids)

    def __bool__(self) -> bool:
        return len(self._doc_ids) > 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MergedPostings(term={self.term!r}, df={len(self._doc_ids)})"


def kill_set(postings, dead: set[int]) -> set[int]:
    """The tombstoned ids of ``dead`` that occur in ``postings``.

    The smaller side drives: a doc-id column no longer than the
    tombstone set is intersected with it, otherwise each tombstone is
    probed (binary search).  The set is the same either way; this is
    what keeps a term's memo refill and a merge from paying
    O(|dead| · log df) on every short postings list.
    """
    if not dead:
        return set()
    if len(postings) <= len(dead):
        return dead.intersection(postings.doc_ids_array())
    return {doc_id for doc_id in dead if postings.frequency(doc_id)}


def _live_runs(ids, kill: set[int]) -> list[tuple[int, int]]:
    """``[start, stop)`` index runs of ``ids`` between killed entries."""
    runs = []
    start = 0
    for cut in sorted(bisect.bisect_left(ids, doc_id) for doc_id in kill):
        if cut > start:
            runs.append((start, cut))
        start = cut + 1
    if start < len(ids):
        runs.append((start, len(ids)))
    return runs


def merge_postings(term: str, sources: list[tuple[object, set[int]]]):
    """Combine one term's postings across ``(postings, kill_set)`` pairs.

    ``kill_set`` holds the tombstoned doc ids *known to occur in that
    source's postings* (callers pre-filter, so probing cost is paid once
    per term, not per read).  Returns the single source unchanged when
    no merging or filtering is needed — that path keeps the mmapped
    zero-copy columns on the hot path — else a :class:`MergedPostings`,
    or ``None`` when nothing survives.

    Live doc ids are disjoint across sources (a replaced document's old
    copy is tombstoned), so the output is the sources' live runs
    interleaved: the run with the smallest head is cut where the next
    smallest head falls, and the cut slice is copied whole.
    """
    live = [(postings, kill) for postings, kill in sources if postings]
    if not live:
        return None
    if len(live) == 1 and not live[0][1]:
        return live[0][0]
    columns = [postings.doc_ids_array() for postings, _ in live]
    freq_columns = [postings.frequencies_array() for postings, _ in live]
    pending = [_live_runs(ids, kill)[::-1]
               for ids, (_, kill) in zip(columns, live)]
    heads = [(columns[s][todo[-1][0]], s)
             for s, todo in enumerate(pending) if todo]
    heapq.heapify(heads)
    runs = []
    while heads:
        _, s = heapq.heappop(heads)
        ids, todo = columns[s], pending[s]
        start, stop = todo.pop()
        if heads:
            cut = bisect.bisect_right(ids, heads[0][0], start, stop)
            if cut < stop:
                todo.append((cut, stop))
                stop = cut
        runs.append((s, start, stop))
        if todo:
            heapq.heappush(heads, (ids[todo[-1][0]], s))
    if not runs:
        return None
    doc_ids_buf = bytearray()
    freqs_buf = bytearray()
    for s, start, stop in runs:
        doc_ids_buf += columns[s][start:stop]
        freqs_buf += freq_columns[s][start:stop]
    doc_ids = array("q")
    doc_ids.frombytes(doc_ids_buf)
    freqs = array("q")
    freqs.frombytes(freqs_buf)
    return MergedPostings(term, doc_ids, freqs,
                          [postings for postings, _ in live], runs)


def union_postings(term: str, sources: list):
    """Doc-id-ordered union of tombstone-free postings whose doc ids
    are disjoint and alternate one by one — the round-robin shard union.

    :func:`merge_postings` would see one run per posting there and pay
    a heap step for each, so this orders the concatenated ids with one
    sort instead, and every posting is its own run.  Returns the single
    source unchanged, or ``None`` when every source is empty.
    """
    live = [postings for postings in sources if postings]
    if not live:
        return None
    if len(live) == 1:
        return live[0]
    ids = list(chain.from_iterable(p.doc_ids_array() for p in live))
    freqs = list(chain.from_iterable(p.frequencies_array() for p in live))
    runs = list(chain.from_iterable(
        zip(repeat(s), range(len(p)), range(1, len(p) + 1))
        for s, p in enumerate(live)))
    order = sorted(range(len(ids)), key=ids.__getitem__)
    return MergedPostings(term, array("q", map(ids.__getitem__, order)),
                          array("q", map(freqs.__getitem__, order)), live,
                          list(map(runs.__getitem__, order)))


def _term_of(walked: tuple[tuple[str, object], set[int]]) -> str:
    return walked[0][0]


class CompactionView:
    """A read-only, tombstone-filtered union of segments for rewriting.

    Speaks exactly the slice of the index protocol
    :func:`~repro.index.segments.format.write_segment` consumes
    (``term_postings`` / ``documents`` / ``norm`` / ``document_count``),
    so merging K segments into one is just
    ``write_segment(path, CompactionView(segments, dead))``.
    """

    def __init__(self, segments: list, dead: list[set[int]]) -> None:
        self._segments = segments
        self._dead = dead
        self._terms: list[list[str]] | None = None

    def _vocabularies(self) -> list[list[str]]:
        """Each segment's term dictionary, decoded once per merge and
        shared by the term walk and the document store."""
        if self._terms is None:
            self._terms = [list(segment.vocabulary())
                           for segment in self._segments]
        return self._terms

    @property
    def document_count(self) -> int:
        return sum(seg.document_count - len(dead)
                   for seg, dead in zip(self._segments, self._dead))

    def term_postings(self) -> Iterator[tuple[str, object]]:
        """``(term, live merged postings)`` in term order.

        A k-way merge of the segments' sorted dictionaries: each is
        walked once, in ordinal order, and a term's sources are the
        segments whose walks meet on it.  A term with no live posting
        left is skipped.
        """
        walks = [zip(segment.ordered_postings(terms), repeat(dead))
                 for segment, dead, terms
                 in zip(self._segments, self._dead, self._vocabularies())]
        for term, group in groupby(heapq.merge(*walks, key=_term_of),
                                   key=_term_of):
            sources = [(postings, kill_set(postings, dead))
                       for (_, postings), dead in group]
            merged = merge_postings(term, sources)
            if merged is not None:
                yield term, merged

    def documents(self) -> Iterator[Document]:
        for segment, dead, terms in zip(self._segments, self._dead,
                                        self._vocabularies()):
            yield from segment.live_documents(dead, terms)

    def norm(self, doc_id: int) -> float:
        for segment, dead in zip(self._segments, self._dead):
            if doc_id not in dead and segment.has_document(doc_id):
                return segment.norm(doc_id)
        raise IndexError_(f"document {doc_id} is not indexed")


@dataclass(frozen=True)
class TieredMergePolicy:
    """Merge when any size tier collects too many segments.

    A segment's tier is ``floor(log_{tier_factor}(live_docs /
    floor_docs))`` clamped at zero: tier 0 holds everything up to
    ``floor_docs`` live documents, tier 1 up to ``floor_docs *
    tier_factor``, and so on.  The smallest overfull tier merges first —
    exactly the Lucene TieredMergePolicy shape, sized down to this
    codebase.
    """

    max_per_tier: int = 4
    tier_factor: int = 10
    floor_docs: int = 1024
    max_dead_fraction: float = 0.3

    def select(self, live_sizes: list[int],
               dead_counts: list[int]) -> list[int] | None:
        """Indices of segments to merge next, or None when healthy."""
        for i, (live, dead) in enumerate(zip(live_sizes, dead_counts)):
            total = live + dead
            if total and dead / total > self.max_dead_fraction:
                return [i]
        tiers: dict[int, list[int]] = {}
        for i, live in enumerate(live_sizes):
            tier = 0
            size = max(live, 1)
            while size > self.floor_docs:
                size //= self.tier_factor
                tier += 1
            tiers.setdefault(tier, []).append(i)
        for tier in sorted(tiers):
            members = tiers[tier]
            if len(members) > self.max_per_tier:
                return sorted(members)
        return None


@dataclass(frozen=True)
class NoMergePolicy:
    """Never merge — segments accumulate until an explicit compaction."""

    def select(self, live_sizes: list[int],
               dead_counts: list[int]) -> list[int] | None:
        return None


MERGE_POLICIES = ("tiered", "none")


def make_merge_policy(name: str):
    """Resolve a ``--merge-policy`` flag value to a policy object."""
    if name == "tiered":
        return TieredMergePolicy()
    if name == "none":
        return NoMergePolicy()
    raise IndexError_(
        f"unknown merge policy {name!r}; expected one of "
        f"{', '.join(MERGE_POLICIES)}")
