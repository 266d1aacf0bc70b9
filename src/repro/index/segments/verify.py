"""Offline integrity checking for segment directories.

:func:`verify_directory` is the operator-facing half of the crash
harness (``schemr verify-index``): it walks a flat or sharded layout
and re-checks everything the reader normally trusts — control-file
JSON, per-segment header CRCs, the manifest's recorded ``bytes`` and
``crc32`` against the actual files, then every section of the segment
layout with the verifier its row of
:data:`~repro.index.segments.format.SECTIONS` declares (offset
monotonicity, sorted term, name and doc-id columns, document record
bounds, every live record's schema payload when it has one, match
record shapes and ordinals), tombstone membership, and (for sharded
layouts) doc-id routing.  A problem inside a segment names its
section.  Findings come back as a :class:`VerifyReport`
of per-file problems and warnings rather than an exception, so one
torn file does not hide the rest of the picture.

The distinction between the two buckets is recoverability: a *problem*
means committed state cannot be trusted (exit non-zero); a *warning* is
crash debris — orphan segments, leftover ``*.tmp`` files — that the
next sweep-enabled open or commit cleans up on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from struct import error as struct_error

from repro.errors import SchemrError
from repro.index.segments.directory import SegmentDirectory
from repro.index.segments.format import SECTIONS, MmapSegment, file_crc32
from repro.index.segments.sharded import (
    SHARDS_NAME,
    _read_shards_marker,
    shard_dir_name,
    shard_of,
)


@dataclass
class VerifyReport:
    """Outcome of a directory walk: per-file problems and warnings."""

    root: str
    problems: list[tuple[str, str]] = field(default_factory=list)
    warnings: list[tuple[str, str]] = field(default_factory=list)
    segments_checked: int = 0
    documents_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems

    def problem(self, path: Path | str, message: str) -> None:
        self.problems.append((str(path), message))

    def warning(self, path: Path | str, message: str) -> None:
        self.warnings.append((str(path), message))

    def lines(self) -> list[str]:
        """The per-file report, problems first."""
        out = []
        for path, message in self.problems:
            out.append(f"PROBLEM  {path}: {message}")
        for path, message in self.warnings:
            out.append(f"warning  {path}: {message}")
        out.append(
            f"{'FAIL' if self.problems else 'OK'}  {self.root}: "
            f"{self.segments_checked} segment(s), "
            f"{self.documents_checked} document(s), "
            f"{len(self.problems)} problem(s), "
            f"{len(self.warnings)} warning(s)")
        return out


def verify_segment_file(path: str | Path,
                        report: VerifyReport | None = None,
                        shard: tuple[int, int] | None = None,
                        deleted: frozenset[int] | set[int] = frozenset()
                        ) -> VerifyReport:
    """Deep-check one segment file; findings append to ``report``.

    ``shard`` is ``(shard_id, shard_count)`` when the segment belongs
    to a sharded layout, enabling the doc-id routing check.
    ``deleted`` holds the manifest's tombstones: a tombstoned record's
    payload is never served, so it is not decoded.
    """
    path = Path(path)
    if report is None:
        report = VerifyReport(root=str(path))
    try:
        segment = MmapSegment(path)
    except SchemrError as exc:
        report.problem(path, str(exc))
        return report
    try:
        _check_segment(segment, path, report, shard, deleted)
    finally:
        segment.close()
    report.segments_checked += 1
    return report


def _check_segment(segment: MmapSegment, path: Path,
                   report: VerifyReport,
                   shard: tuple[int, int] | None,
                   deleted: frozenset[int] | set[int]) -> None:
    # Every section of the layout, in table order, with its own
    # verifier: the header CRC protects offsets, not what they point
    # at, so targeted corruption or a writer bug shows up here, named
    # by its section.
    for section in SECTIONS:
        try:
            problem = section.verify(
                segment, segment.sections[section.name], deleted)
        except (ValueError, IndexError, struct_error) as exc:
            problem = f"does not decode: {exc}"
        if problem is not None:
            report.problem(path, f"section {section.name}: {problem}")
            return
    # Routing: a sharded layout's segment holds only its shard's ids.
    if shard is not None:
        for doc_id in segment.doc_ids():
            if shard_of(doc_id, shard[1]) != shard[0]:
                report.problem(
                    path,
                    f"document {doc_id} routed to shard "
                    f"{shard_of(doc_id, shard[1])} but stored in shard "
                    f"{shard[0]}")
                return
    report.documents_checked += segment.document_count


def _verify_flat(path: Path, report: VerifyReport,
                 shard: tuple[int, int] | None = None) -> None:
    directory = SegmentDirectory(path)
    try:
        manifest = directory.read_manifest()
    except SchemrError as exc:
        report.problem(directory.manifest_path, str(exc))
        return
    referenced = set()
    for entry in manifest["segments"]:
        seg_path = path / entry["file"]
        referenced.add(entry["file"])
        if not seg_path.exists():
            report.problem(
                seg_path, "referenced by the manifest but missing")
            continue
        actual_bytes = seg_path.stat().st_size
        if "bytes" in entry and entry["bytes"] != actual_bytes:
            report.problem(
                seg_path,
                f"manifest records {entry['bytes']} bytes, file has "
                f"{actual_bytes}")
            continue
        if "crc32" in entry and entry["crc32"] != file_crc32(seg_path):
            report.problem(
                seg_path,
                "manifest crc32 does not match the file contents")
            continue
        before = len(report.problems)
        verify_segment_file(seg_path, report, shard=shard,
                            deleted=set(entry.get("deleted", ())))
        if len(report.problems) > before:
            continue
        # Tombstones must name documents the segment actually holds.
        segment = MmapSegment(seg_path)
        try:
            for doc_id in entry.get("deleted", ()):
                if not segment.has_document(doc_id):
                    report.problem(
                        seg_path,
                        f"tombstone for absent document {doc_id}")
                    break
        finally:
            segment.close()
    for stray in sorted(path.glob("seg_*.seg")):
        if stray.name not in referenced:
            report.warning(stray, "orphan segment (not in the manifest); "
                                  "a sweep-enabled open removes it")
    for tmp in sorted(path.glob("*.tmp")):
        report.warning(tmp, "leftover temp file from an interrupted "
                            "write; a sweep-enabled open removes it")


def verify_directory(path: str | Path) -> VerifyReport:
    """Walk a segment directory — flat or sharded — and re-check it."""
    root = Path(path)
    report = VerifyReport(root=str(root))
    marker = root / SHARDS_NAME
    if not marker.exists():
        if not (root / "MANIFEST.json").exists():
            report.problem(root, "not a segment directory (no "
                                 "MANIFEST.json or SHARDS.json)")
            return report
        _verify_flat(root, report)
        return report
    try:
        count = _read_shards_marker(marker)
    except SchemrError as exc:
        report.problem(marker, str(exc))
        return report
    for shard_id in range(count):
        shard_path = root / shard_dir_name(shard_id)
        if not shard_path.is_dir():
            report.problem(
                shard_path,
                f"{SHARDS_NAME} declares {count} shard(s) but this "
                f"one is missing")
            continue
        _verify_flat(shard_path, report, shard=(shard_id, count))
    return report
