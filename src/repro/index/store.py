"""Index persistence, routed through the binary segment format.

:func:`save_index` serializes any index (in-memory or segmented) into
one immutable segment file — the mmap layout of
:mod:`repro.index.segments.format` — written atomically via
write-temp-then-rename.  :func:`load_index` sniffs what it is given:

* a *segment directory* (``MANIFEST.json`` present) opens as a
  multi-segment :class:`~repro.index.segments.SegmentedIndex`;
* a *segment file* (magic ``SCHMRSEG``) opens as a single-segment
  ``SegmentedIndex`` — O(1) in corpus size, no postings rebuild.
"""

from __future__ import annotations

from pathlib import Path

from repro.errors import IndexError_
from repro.index.segments import MAGIC, SegmentedIndex, write_segment
from repro.index.segments.directory import MANIFEST_NAME


def save_index(index, path: str | Path) -> None:
    """Write ``index`` to ``path`` as one segment file, atomically.

    Accepts anything speaking the index read protocol —
    ``InvertedIndex`` and ``SegmentedIndex`` both qualify (saving a
    segmented index folds its delta and drops tombstones).
    """
    write_segment(path, index)


def load_index(path: str | Path) -> SegmentedIndex:
    """Load what :func:`save_index` (or an indexer flush) produced."""
    path = Path(path)
    if path.is_dir():
        if not (path / MANIFEST_NAME).exists():
            raise IndexError_(
                f"index directory {path} has no {MANIFEST_NAME}")
        return SegmentedIndex.open(path)
    if not path.exists():
        raise IndexError_(f"index file {path} does not exist")
    with open(path, "rb") as handle:
        head = handle.read(len(MAGIC))
    if head != MAGIC:
        raise IndexError_(
            f"index file {path} is not a segment file: expected magic "
            f"{MAGIC!r}, found {head!r}")
    return SegmentedIndex.from_segment_file(path)
