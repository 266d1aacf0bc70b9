"""The offline integrity checker behind ``schemr verify-index``.

Corruption fixtures are surgical — flip one byte, drop one file, tear
one control file — so each test pins down which layer of the checker
(manifest CRCs, section structure, routing, tombstones) catches what.
"""

from __future__ import annotations

import json

import pytest

from repro.index.documents import Document
from repro.index.inverted import InvertedIndex
from repro.index.segments import (
    SegmentedIndex,
    open_segment_index,
    verify_directory,
    verify_segment_file,
    write_segment,
)
from repro.index.segments.format import file_crc32
from repro.index.segments.sharded import SHARDS_NAME
from repro.model.schema import Schema


def doc(i: int) -> Document:
    words = ["patient", "height", "salary", "orbit", "kelp", "ledger"]
    return Document(i, f"doc{i}", summary=f"s{i}",
                    terms=[words[i % 6], words[(i + 3) % 6], "common"])


def stored_doc(i: int) -> Document:
    """``doc(i)`` carrying the payload a repository-fed index stores."""
    document = doc(i)
    document.payload = Schema(f"doc{i}", schema_id=i).to_payload()
    return document


def build_flat(path, count: int = 10) -> SegmentedIndex:
    index = SegmentedIndex.open(path, create=True)
    for i in range(count):
        index.add(doc(i))
    index.flush(last_change_id=count)
    return index


def committed_segment(path):
    manifest = json.loads((path / "MANIFEST.json").read_text())
    return path / manifest["segments"][0]["file"]


class TestVerifyFlat:
    def test_clean_directory_is_ok(self, tmp_path):
        build_flat(tmp_path)
        report = verify_directory(tmp_path)
        assert report.ok
        assert report.segments_checked == 1
        assert report.documents_checked == 10
        assert report.lines()[-1].startswith("OK")

    def test_flipped_byte_fails_crc(self, tmp_path):
        build_flat(tmp_path)
        seg = committed_segment(tmp_path)
        blob = bytearray(seg.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        seg.write_bytes(bytes(blob))
        report = verify_directory(tmp_path)
        assert not report.ok
        assert any("crc32" in message for _, message in report.problems)
        assert report.lines()[-1].startswith("FAIL")

    def test_truncated_segment_detected(self, tmp_path):
        build_flat(tmp_path)
        seg = committed_segment(tmp_path)
        seg.write_bytes(seg.read_bytes()[:-64])
        report = verify_directory(tmp_path)
        assert not report.ok
        assert any("bytes" in message for _, message in report.problems)

    def test_missing_referenced_segment(self, tmp_path):
        build_flat(tmp_path)
        committed_segment(tmp_path).unlink()
        report = verify_directory(tmp_path)
        assert not report.ok
        assert any("missing" in message for _, message in report.problems)

    def test_torn_manifest_is_a_problem(self, tmp_path):
        build_flat(tmp_path)
        (tmp_path / "MANIFEST.json").write_text('{"format": 1, "seg')
        report = verify_directory(tmp_path)
        assert not report.ok
        assert any("torn" in message for _, message in report.problems)

    def test_tombstone_for_absent_document(self, tmp_path):
        build_flat(tmp_path)
        manifest_path = tmp_path / "MANIFEST.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["segments"][0]["deleted"] = [424242]
        manifest_path.write_text(json.dumps(manifest))
        report = verify_directory(tmp_path)
        assert not report.ok
        assert any("tombstone" in message for _, message in report.problems)

    def test_orphans_warn_but_pass(self, tmp_path):
        build_flat(tmp_path)
        (tmp_path / "seg_77777777.seg").write_bytes(b"junk")
        (tmp_path / "seg_00000001.seg.tmp").write_bytes(b"junk")
        report = verify_directory(tmp_path)
        assert report.ok
        assert len(report.warnings) == 2
        assert any("orphan" in message for _, message in report.warnings)
        assert any("temp" in message for _, message in report.warnings)

    def _flip_payload_byte(self, path, doc_id: int) -> None:
        """Flip one byte inside ``doc_id``'s payload, then re-record the
        file's CRC in the manifest — the corruption only the payload
        check can see."""
        seg = committed_segment(path)
        blob = bytearray(seg.read_bytes())
        payload = stored_doc(doc_id).payload
        at = blob.index(payload) + len(payload) // 2
        blob[at] ^= 0xFF
        seg.write_bytes(bytes(blob))
        manifest_path = path / "MANIFEST.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["segments"][0]["crc32"] = file_crc32(seg)
        manifest_path.write_text(json.dumps(manifest))

    def _build_stored_flat(self, path) -> None:
        index = SegmentedIndex.open(path, create=True)
        for i in range(10):
            index.add(stored_doc(i))
        index.flush(last_change_id=10)

    def test_flipped_payload_byte_is_reported(self, tmp_path):
        self._build_stored_flat(tmp_path)
        assert verify_directory(tmp_path).ok
        self._flip_payload_byte(tmp_path, 3)
        report = verify_directory(tmp_path)
        assert not report.ok
        assert any("document 3: payload does not decode" in message
                   for _, message in report.problems)

    def test_payload_naming_another_schema_is_reported(self, tmp_path):
        index = InvertedIndex()
        index.add(stored_doc(3))
        index.add(Document(4, "doc4", terms=["common"],
                           payload=stored_doc(5).payload))
        path = tmp_path / "seg.seg"
        write_segment(path, index)
        report = verify_segment_file(path)
        assert not report.ok
        assert any("document 4: payload holds schema 5" in message
                   for _, message in report.problems)

    def test_tombstoned_record_payload_is_not_checked(self, tmp_path):
        self._build_stored_flat(tmp_path)
        self._flip_payload_byte(tmp_path, 3)
        manifest_path = tmp_path / "MANIFEST.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["segments"][0]["deleted"] = [3]
        manifest_path.write_text(json.dumps(manifest))
        assert verify_directory(tmp_path).ok

    def test_not_a_segment_directory(self, tmp_path):
        report = verify_directory(tmp_path)
        assert not report.ok
        assert "not a segment directory" in report.problems[0][1]


class TestVerifySegmentFile:
    def test_shard_routing_violation(self, tmp_path):
        # Docs 0..5 in one segment: claiming it belongs to shard 1 of 2
        # must flag every even doc id as misrouted.
        index = InvertedIndex()
        for i in range(6):
            index.add(doc(i))
        path = tmp_path / "seg.seg"
        write_segment(path, index)
        assert verify_segment_file(path, shard=(0, 2)).ok is False
        ok_report = verify_segment_file(path, shard=(1, 2))
        assert not ok_report.ok
        assert any("routed to shard" in message
                   for _, message in ok_report.problems)
        assert verify_segment_file(path).ok  # no shard claim: fine

    def test_garbage_file_is_one_problem(self, tmp_path):
        path = tmp_path / "seg.seg"
        path.write_bytes(b"\x00" * 512)
        report = verify_segment_file(path)
        assert not report.ok
        assert report.segments_checked == 0


class TestVerifySharded:
    @pytest.fixture
    def sharded(self, tmp_path):
        index = open_segment_index(tmp_path, shards=2, create=True)
        for i in range(10):
            index.add(doc(i))
        index.flush(last_change_id=10)
        return tmp_path

    def test_clean_sharded_layout(self, sharded):
        report = verify_directory(sharded)
        assert report.ok
        assert report.segments_checked == 2
        assert report.documents_checked == 10

    def test_missing_shard_directory(self, sharded):
        import shutil
        shutil.rmtree(sharded / "shard_0001")
        report = verify_directory(sharded)
        assert not report.ok
        assert any("missing" in message for _, message in report.problems)

    def test_torn_shards_marker(self, sharded):
        (sharded / SHARDS_NAME).write_text('{"shards"')
        report = verify_directory(sharded)
        assert not report.ok

    def test_cross_shard_swap_caught_by_routing(self, sharded):
        # Byte-identical valid segments in the wrong shard directory:
        # only the routing check can see this.
        seg0 = committed_segment(sharded / "shard_0000")
        seg1 = committed_segment(sharded / "shard_0001")
        blob0, blob1 = seg0.read_bytes(), seg1.read_bytes()
        manifest0 = (sharded / "shard_0000" / "MANIFEST.json").read_text()
        manifest1 = (sharded / "shard_0001" / "MANIFEST.json").read_text()
        seg0.unlink()
        seg1.unlink()
        (sharded / "shard_0000" / seg1.name).write_bytes(blob1)
        (sharded / "shard_0001" / seg0.name).write_bytes(blob0)
        (sharded / "shard_0000" / "MANIFEST.json").write_text(manifest1)
        (sharded / "shard_0001" / "MANIFEST.json").write_text(manifest0)
        report = verify_directory(sharded)
        assert not report.ok
        assert any("routed to shard" in message
                   for _, message in report.problems)
