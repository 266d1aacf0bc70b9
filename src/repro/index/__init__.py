"""A from-scratch inverted index standing in for Apache Lucene.

The paper stores each schema as a *document* — title, summary, ID, and a
flattened representation of every element — in "an inverted index [of] a
term dictionary of frequency data, proximity data, and normalization
factors, providing a fast and scalable filter for relevant candidate
schemas".  This package provides exactly that:

* :class:`~repro.index.documents.Document` — the indexed unit;
* :class:`~repro.index.inverted.InvertedIndex` — term dictionary with
  postings (doc -> frequency + positions), document store, length norms,
  add/remove/replace;
* :class:`~repro.index.searcher.IndexSearcher` — Lucene-classic TF/IDF
  scoring with the paper's coordination factor, top-n heap retrieval;
* :mod:`~repro.index.segments` — immutable on-disk segments loaded via
  ``mmap`` with zero-copy reads, plus :class:`SegmentedIndex`, the
  segments-and-delta composite that makes cold start O(segment count)
  instead of O(corpus), so the offline indexer can restart "at
  scheduled intervals" without a rebuild from nothing;
* :class:`~repro.index.segments.view.IndexView` — one published,
  immutable index state; every read of every index goes through one,
  and a search pins one for its whole run.
"""

from repro.index.cache import QueryCache
from repro.index.documents import Document, document_from_schema
from repro.index.fuzzy import TrigramIndex
from repro.index.suggest import PrefixSuggester
from repro.index.inverted import IndexSnapshot, InvertedIndex
from repro.index.postings import Posting, PostingsList
from repro.index.scoring import TfIdfScorer
from repro.index.searcher import IndexHit, IndexSearcher
from repro.index.segments import (
    IndexView,
    MmapSegment,
    SegmentDirectory,
    SegmentedIndex,
    TieredMergePolicy,
    make_merge_policy,
    write_segment,
)

__all__ = [
    "Document",
    "PrefixSuggester",
    "QueryCache",
    "TrigramIndex",
    "IndexHit",
    "IndexSearcher",
    "IndexSnapshot",
    "IndexView",
    "InvertedIndex",
    "MmapSegment",
    "Posting",
    "PostingsList",
    "SegmentDirectory",
    "SegmentedIndex",
    "TfIdfScorer",
    "TieredMergePolicy",
    "document_from_schema",
    "make_merge_policy",
    "write_segment",
]
