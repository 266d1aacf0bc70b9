"""Segment directories: a manifest plus immutable segment files.

A segment directory is the durable form of a
:class:`~repro.index.segments.segmented.SegmentedIndex`::

    <dir>/MANIFEST.json     which segments are live, their tombstones
    <dir>/seg_00000001.seg  immutable segment files (format.py layout)

The manifest is the single commit point.  Every state change — a delta
flush, a merge, a rebuild, a replica pull — first writes any new
segment file, then writes ``MANIFEST.json.tmp``, renames it over the
manifest and fsyncs the directory, so the rename (and every segment
rename before it) survives a power cut and a reopen finds the last
committed generation.  A crash at any point leaves either the old
manifest (pointing at the old, still present segment files) or the new
one; half-written segment files are never referenced and get swept on
the next commit or on a sweep-enabled open (the single-writer startup
path).

Manifest entries record each segment's ``bytes`` and ``crc32``
alongside the tombstones, so replicas can verify pulled files and
``schemr verify-index`` can re-check a directory end to end.  Older
manifests without those fields still open; the checksums are
recomputed lazily where needed.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.errors import IndexError_, SegmentDirectoryError
from repro.resilience.faults import FAULTS

MANIFEST_NAME = "MANIFEST.json"
MANIFEST_FORMAT = 1
_SEGMENT_GLOB = "seg_*.seg"

#: The operator-facing recovery line for a torn control file.  The
#: atomic tmp+fsync+rename commit discipline means the library never
#: produces one; seeing it implies a disk fault or outside interference.
RECOVERY_HINT = ("recover by restoring this directory from a replica "
                 "(`schemr replicate`) or re-indexing from the "
                 "repository (`schemr index --segment-dir`)")


def fsync_directory(path: Path) -> None:
    """Flush ``path``'s entries to disk, so renames into it survive a
    power cut (a file's own fsync does not cover its name)."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class SegmentDirectory:
    """Filesystem half of the segmented index: naming, manifest, sweep."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    @property
    def manifest_path(self) -> Path:
        return self.path / MANIFEST_NAME

    @classmethod
    def open(cls, path: str | Path, create: bool = False,
             sweep: bool = False) -> "SegmentDirectory":
        """Open (or, with ``create``, initialize) a segment directory.

        ``sweep`` runs the startup orphan sweep: leftover ``*.tmp``
        files and segment files the committed manifest does not
        reference (debris of a crash mid-flush, mid-merge, or
        mid-pull) are unlinked before anything else reads the
        directory.  Only the single writer — the indexer, or a replica
        syncer — may sweep; a read-only opener (a shard worker
        mmapping the directory while the writer commits) must not,
        because a freshly renamed segment is unreferenced for the
        instant before its manifest lands.
        """
        directory = cls(path)
        if directory.manifest_path.exists():
            if sweep:
                manifest = directory.read_manifest()
                directory._sweep_orphans(
                    {entry["file"] for entry in manifest["segments"]})
            return directory
        if not create:
            raise IndexError_(
                f"segment directory {directory.path} has no "
                f"{MANIFEST_NAME}")
        directory.path.mkdir(parents=True, exist_ok=True)
        directory.write_manifest(next_id=1, last_change_id=0, segments=[])
        return directory

    def segment_path(self, segment_id: int) -> Path:
        return self.path / f"seg_{segment_id:08d}.seg"

    def read_manifest(self) -> dict:
        """Parse and validate ``MANIFEST.json``."""
        try:
            raw = self.manifest_path.read_text(encoding="utf-8")
        except OSError as exc:
            raise IndexError_(
                f"segment directory {self.path} has no readable "
                f"{MANIFEST_NAME}: {exc}") from exc
        try:
            manifest = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise SegmentDirectoryError(
                f"{self.manifest_path} is truncated or torn at "
                f"line {exc.lineno}, column {exc.colno}: {exc.msg}",
                path=str(self.manifest_path),
                hint=RECOVERY_HINT) from exc
        if manifest.get("format") != MANIFEST_FORMAT:
            raise IndexError_(
                f"{self.manifest_path} has unsupported format "
                f"{manifest.get('format')!r}; expected {MANIFEST_FORMAT}")
        for key in ("next_id", "segments"):
            if key not in manifest:
                raise SegmentDirectoryError(
                    f"{self.manifest_path} is corrupt: missing {key!r}",
                    path=str(self.manifest_path),
                    hint=RECOVERY_HINT)
        return manifest

    def write_manifest(self, next_id: int, last_change_id: int,
                       segments: list[dict]) -> None:
        """Commit a new directory state atomically (tmp + rename).

        ``segments`` entries are ``{"file": name, "deleted": [ids],
        "bytes": n, "crc32": n}``.  One fsync of the directory makes
        the rename durable, and with it the segment files renamed in
        before this commit.  After that, any ``seg_*.seg`` file the new
        manifest does not reference is an orphan (from a merge, a
        rebuild, or a crash mid-flush) and is unlinked best-effort.
        """
        manifest = {
            "format": MANIFEST_FORMAT,
            "next_id": next_id,
            "last_change_id": last_change_id,
            "segments": segments,
        }
        tmp = self.manifest_path.with_suffix(".json.tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=1)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        # Crash-injection site: the new manifest is durable under its
        # tmp name; the committed state is still the old manifest.
        FAULTS.hit("segments.manifest.pre_rename")
        tmp.replace(self.manifest_path)
        fsync_directory(self.path)
        # Crash-injection site: the commit landed but the orphan sweep
        # has not run — stale segment files linger until the next
        # commit or sweep-enabled open.
        FAULTS.hit("segments.manifest.post_rename")
        self._sweep_orphans({entry["file"] for entry in segments})

    def _sweep_orphans(self, referenced: set[str]) -> None:
        for stray in self.path.glob(_SEGMENT_GLOB):
            if stray.name not in referenced:
                try:
                    stray.unlink()
                except OSError:  # pragma: no cover - unlink race
                    pass  # an open reader on another platform; harmless
        for tmp in self.path.glob("*.tmp"):
            try:
                tmp.unlink()
            except OSError:  # pragma: no cover - unlink race
                pass
