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
"""

from __future__ import annotations

import bisect
from array import array
from dataclasses import dataclass
from typing import Iterator

from repro.errors import IndexError_
from repro.index.documents import Document
from repro.index.postings import Posting


class MergedPostings:
    """One term's postings merged across sources, tombstones applied.

    Presents the same read API as
    :class:`~repro.index.postings.PostingsList`.  The doc-id and
    frequency columns are materialized packed arrays; positions resolve
    lazily through the contributing source postings.
    """

    __slots__ = ("term", "_doc_ids", "_freqs", "_sources",
                 "_collection_frequency", "_max_frequency")

    def __init__(self, term: str, doc_ids: array, freqs: array,
                 sources: list) -> None:
        self.term = term
        self._doc_ids = doc_ids
        self._freqs = freqs
        self._sources = sources
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

    @property
    def postings(self) -> list[Posting]:
        return [source.get(doc_id)
                for doc_id, source in zip(self._doc_ids, self._sources)]

    def _find(self, doc_id: int) -> int | None:
        ids = self._doc_ids
        i = bisect.bisect_left(ids, doc_id)
        if i < len(ids) and ids[i] == doc_id:
            return i
        return None

    def get(self, doc_id: int) -> Posting | None:
        i = self._find(doc_id)
        if i is None:
            return None
        return self._sources[i].get(doc_id)

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


def merge_postings(term: str, sources: list[tuple[object, set[int]]]):
    """Combine one term's postings across ``(postings, kill_set)`` pairs.

    ``kill_set`` holds the tombstoned doc ids *known to occur in that
    source's postings* (callers pre-filter, so probing cost is paid once
    per term, not per read).  Returns the single source unchanged when
    no merging or filtering is needed — that path keeps the mmapped
    zero-copy columns on the hot path — else a :class:`MergedPostings`,
    or ``None`` when nothing survives.
    """
    live = [(postings, kill) for postings, kill in sources if postings]
    if not live:
        return None
    if len(live) == 1 and not live[0][1]:
        return live[0][0]
    entries = []
    for postings, kill in live:
        ids = postings.doc_ids_array()
        freqs = postings.frequencies_array()
        if kill:
            entries.extend(
                (doc_id, freqs[i], postings)
                for i, doc_id in enumerate(ids) if doc_id not in kill)
        else:
            entries.extend(
                (doc_id, freqs[i], postings)
                for i, doc_id in enumerate(ids))
    if not entries:
        return None
    entries.sort(key=lambda entry: entry[0])
    doc_ids = array("q", (entry[0] for entry in entries))
    freqs = array("q", (entry[1] for entry in entries))
    return MergedPostings(term, doc_ids, freqs,
                          [entry[2] for entry in entries])


class CompactionView:
    """A read-only, tombstone-filtered union of segments for rewriting.

    Speaks exactly the slice of the index protocol
    :func:`~repro.index.segments.format.write_segment` consumes
    (``vocabulary`` / ``postings`` / ``documents`` / ``norm`` /
    ``document_count``), so merging K segments into one is just
    ``write_segment(path, CompactionView(segments, dead))``.
    """

    def __init__(self, segments: list, dead: list[set[int]]) -> None:
        self._segments = segments
        self._dead = dead

    @property
    def document_count(self) -> int:
        return sum(seg.document_count - len(dead)
                   for seg, dead in zip(self._segments, self._dead))

    def vocabulary(self) -> Iterator[str]:
        seen: set[str] = set()
        for segment in self._segments:
            for term in segment.vocabulary():
                if term not in seen:
                    seen.add(term)
                    yield term

    def postings(self, term: str):
        sources = []
        for segment, dead in zip(self._segments, self._dead):
            postings = segment.postings(term)
            if postings is None:
                continue
            sources.append((postings, kill_set(postings, dead)))
        return merge_postings(term, sources)

    def documents(self) -> Iterator[Document]:
        for segment, dead in zip(self._segments, self._dead):
            for doc_id in segment.doc_ids():
                if doc_id not in dead:
                    yield segment.document(doc_id)

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
