"""Offline integrity checking for segment directories.

:func:`verify_directory` is the operator-facing half of the crash
harness (``schemr verify-index``): it walks a flat or sharded layout
and re-checks everything the reader normally trusts — control-file
JSON, per-segment header CRCs, the manifest's recorded ``bytes`` and
``crc32`` against the actual files, section offset monotonicity, sorted
term and doc-id columns, document record bounds, every live record's
schema payload, when it has one (it must decode to the schema the
record's doc id names), tombstone membership, and (for sharded
layouts) doc-id routing.  Findings come back as a :class:`VerifyReport`
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

from repro.errors import SchemaError, SchemrError
from repro.index.segments.directory import SegmentDirectory
from repro.index.segments.format import MmapSegment, file_crc32
from repro.index.segments.sharded import (
    SHARDS_NAME,
    _read_shards_marker,
    shard_dir_name,
    shard_of,
)
from repro.model.schema import Schema


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
    # Offset columns must be non-decreasing; a violation means the
    # header CRC protected a coherent header over incoherent sections
    # (targeted corruption) or a writer bug.
    for name, column in (("tstr_off", segment._tstr_off),
                         ("post_off", segment._post_off),
                         ("pos_off", segment._pos_off),
                         ("doc_off", segment._doc_off),
                         ("pay_off", segment._pay_off)):
        previous = 0
        for value in column:
            if value < previous:
                report.problem(path, f"{name} offsets are not monotonic")
                return
            previous = value
    # The term dictionary must be strictly sorted — binary search
    # correctness depends on it.
    previous_term = b""
    for i in range(segment.term_count):
        t0, t1 = segment._tstr_off[i], segment._tstr_off[i + 1]
        blob = bytes(segment._term_bytes[t0:t1])
        if i and blob <= previous_term:
            report.problem(path, f"term dictionary unsorted at ordinal {i}")
            return
        previous_term = blob
    # Per-term postings columns: doc ids strictly increasing,
    # frequencies positive and consistent with the positions extents.
    for i in range(segment.term_count):
        p0, p1 = segment._post_off[i], segment._post_off[i + 1]
        ids = segment._doc_ids_blob[p0:p1]
        freqs = segment._freqs_blob[p0:p1]
        previous_id = -1
        total = 0
        for j in range(len(ids)):
            if ids[j] <= previous_id:
                report.problem(
                    path, f"postings doc ids unsorted for term ordinal {i}")
                return
            previous_id = ids[j]
            if freqs[j] <= 0:
                report.problem(
                    path,
                    f"non-positive frequency for term ordinal {i}")
                return
            total += freqs[j]
        if total != segment._pos_off[i + 1] - segment._pos_off[i]:
            report.problem(
                path,
                f"positions extent disagrees with frequencies for "
                f"term ordinal {i}")
            return
    # Document store: sorted ids, routing (sharded layouts), and every
    # record must decode within bounds.
    previous_id = -1
    for i in range(segment.document_count):
        doc_id = segment._norm_ids[i]
        if doc_id <= previous_id:
            report.problem(path, f"document ids unsorted at index {i}")
            return
        previous_id = doc_id
        if shard is not None and shard_of(doc_id, shard[1]) != shard[0]:
            report.problem(
                path,
                f"document {doc_id} routed to shard "
                f"{shard_of(doc_id, shard[1])} but stored in shard "
                f"{shard[0]}")
            return
        try:
            document = segment._decode_document(i)
        except (ValueError, struct_error, IndexError) as exc:
            report.problem(
                path, f"document record {i} does not decode: {exc}")
            return
        # A document indexed directly rather than from a repository
        # carries no payload, so there is nothing to decode.
        if doc_id not in deleted and len(document.payload):
            problem = _payload_problem(document.payload, doc_id)
            if problem is not None:
                report.problem(path, f"document {doc_id}: {problem}")
                return
        report.documents_checked += 1


def _payload_problem(payload, doc_id: int) -> str | None:
    """Why a live record's payload cannot serve phase 2, or None."""
    try:
        schema = Schema.from_payload(payload)
    except SchemaError as exc:
        return f"payload does not decode to a schema: {exc}"
    if schema.schema_id != doc_id:
        return f"payload holds schema {schema.schema_id}"
    return None


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
