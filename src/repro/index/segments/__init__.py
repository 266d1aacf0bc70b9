"""Immutable on-disk index segments with mmap zero-copy reads.

The package splits Lucene's segment model into these pieces:

* :mod:`~repro.index.segments.format` — the binary single-file segment
  layout, its writer, and the :class:`MmapSegment` reader;
* :mod:`~repro.index.segments.directory` — the manifest-committed
  segment directory (atomic swaps, crash safety, orphan sweeping);
* :mod:`~repro.index.segments.merge` — multi-source postings merging
  and the tiered merge policy;
* :mod:`~repro.index.segments.view` — :class:`IndexView`, one
  published index state and the one read implementation;
* :mod:`~repro.index.segments.segmented` — :class:`SegmentedIndex`,
  the ``InvertedIndex``-protocol facade over segments + delta;
* :mod:`~repro.index.segments.verify` — offline integrity checking
  (``schemr verify-index``) for flat and sharded layouts.
"""

from repro.index.segments.directory import SegmentDirectory
from repro.index.segments.format import (
    FORMAT_VERSION,
    MAGIC,
    MmapSegment,
    SegmentPostings,
    file_crc32,
    write_segment,
)
from repro.index.segments.merge import (
    MERGE_POLICIES,
    CompactionView,
    MergedPostings,
    NoMergePolicy,
    TieredMergePolicy,
    make_merge_policy,
    merge_postings,
)
from repro.index.segments.segmented import SegmentedIndex
from repro.index.segments.view import IndexView
from repro.index.segments.verify import (
    VerifyReport,
    verify_directory,
    verify_segment_file,
)
from repro.index.segments.sharded import (
    SHARDS_NAME,
    ShardedSegmentIndex,
    detect_shard_count,
    open_segment_index,
    shard_dir_name,
    shard_of,
)

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "MERGE_POLICIES",
    "SHARDS_NAME",
    "CompactionView",
    "IndexView",
    "MergedPostings",
    "MmapSegment",
    "NoMergePolicy",
    "SegmentDirectory",
    "SegmentPostings",
    "SegmentedIndex",
    "ShardedSegmentIndex",
    "TieredMergePolicy",
    "VerifyReport",
    "detect_shard_count",
    "file_crc32",
    "make_merge_policy",
    "merge_postings",
    "open_segment_index",
    "shard_dir_name",
    "shard_of",
    "verify_directory",
    "verify_segment_file",
    "write_segment",
]
