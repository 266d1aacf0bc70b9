"""Unit tests for index persistence: segment files and directories."""

import pytest

from repro.errors import IndexError_
from repro.index.documents import Document
from repro.index.inverted import InvertedIndex
from repro.index.segments import MmapSegment, SegmentedIndex, write_segment


@pytest.fixture
def index() -> InvertedIndex:
    idx = InvertedIndex()
    idx.add(Document(1, "clinic", summary="health",
                     terms=["patient", "height"]))
    idx.add(Document(2, "hr", terms=["employee", "salary"]))
    return idx


def _directory(index, path) -> SegmentedIndex:
    """A segment directory holding ``index``'s documents, reopened."""
    live = SegmentedIndex.open(path, create=True)
    for document in index.documents():
        live.add(document)
    live.flush()
    return SegmentedIndex.open(path)


class TestRoundtrip:
    def test_documents_survive(self, index, tmp_path):
        path = tmp_path / "segment.seg"
        write_segment(path, index)
        loaded = MmapSegment(path)
        assert loaded.document_count == 2
        assert loaded.document(1).title == "clinic"
        assert loaded.document(1).summary == "health"
        assert loaded.document(2).terms == ["employee", "salary"]

    def test_statistics_survive(self, index, tmp_path):
        path = tmp_path / "segment.seg"
        write_segment(path, index)
        loaded = MmapSegment(path)
        assert loaded.document_frequency("patient") == \
            index.document_frequency("patient")
        assert loaded.norm(1) == index.norm(1)
        assert loaded.term_count == index.term_count

    def test_loads_as_segmented_index(self, index, tmp_path):
        loaded = _directory(index, tmp_path / "segments")
        assert loaded.segment_count == 1
        # Reopened indexes accept live mutations through the delta.
        loaded.add(Document(3, "late", terms=["patient"]))
        assert loaded.document_frequency("patient") == 2
        loaded.remove(1)
        assert loaded.document_count == 2

    def test_resave_of_loaded_index(self, index, tmp_path):
        """A reopened (and mutated) directory re-commits faithfully."""
        loaded = _directory(index, tmp_path / "segments")
        loaded.replace(Document(2, "hr2", terms=["employee", "bonus"]))
        loaded.flush()
        again = SegmentedIndex.open(tmp_path / "segments")
        assert again.document_count == 2
        assert again.document(2).title == "hr2"
        assert again.document_frequency("salary") == 0
        assert again.document_frequency("bonus") == 1

    def test_empty_index_roundtrips(self, tmp_path):
        path = tmp_path / "empty.seg"
        write_segment(path, InvertedIndex())
        assert MmapSegment(path).document_count == 0

    def test_atomic_write_leaves_no_tmp(self, index, tmp_path):
        path = tmp_path / "segment.seg"
        write_segment(path, index)
        assert not (tmp_path / "segment.seg.tmp").exists()

    def test_directory_roundtrip(self, index, tmp_path):
        """A segment directory loads as a multi-segment index."""
        loaded = _directory(index, tmp_path / "segments")
        assert isinstance(loaded, SegmentedIndex)
        assert loaded.document_count == 2
        assert loaded.norm(1) == index.norm(1)


class TestLegacyCompat:
    def test_new_saves_are_not_jsonl(self, index, tmp_path):
        path = tmp_path / "segment.seg"
        write_segment(path, index)
        assert path.read_bytes()[:8] == b"SCHMRSEG"

    def test_non_segment_file_names_expected_magic(self, tmp_path,
                                                   recwarn):
        """The JSON-lines layout is gone: anything that is not a
        segment is rejected up front, with no deprecation path."""
        path = tmp_path / "old.jsonl"
        path.write_text('{"format": 1, "documents": 0}\n' * 16)
        with pytest.raises(IndexError_, match="bad magic"):
            MmapSegment(path)
        assert not recwarn.list


class TestCorruption:
    def test_missing_file(self, tmp_path):
        with pytest.raises(IndexError_, match="cannot be opened"):
            MmapSegment(tmp_path / "ghost.seg")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.seg"
        path.write_text("")
        with pytest.raises(IndexError_, match="cannot be mapped"):
            MmapSegment(path)

    def test_corrupt_header(self, tmp_path):
        path = tmp_path / "bad.seg"
        path.write_bytes(b"SCHMRSEX" + bytes(256))
        with pytest.raises(IndexError_, match="bad magic"):
            MmapSegment(path)

    def test_truncated_segment_detected(self, index, tmp_path):
        path = tmp_path / "segment.seg"
        write_segment(path, index)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(IndexError_, match="truncated"):
            MmapSegment(path)

    def test_corrupt_segment_header_detected(self, index, tmp_path):
        path = tmp_path / "segment.seg"
        write_segment(path, index)
        blob = bytearray(path.read_bytes())
        blob[20] ^= 0xFF  # flip a header byte past the crc field
        path.write_bytes(bytes(blob))
        with pytest.raises(IndexError_, match="checksum"):
            MmapSegment(path)

    def test_directory_without_manifest(self, tmp_path):
        empty = tmp_path / "segments"
        empty.mkdir()
        with pytest.raises(IndexError_, match="MANIFEST"):
            SegmentedIndex.open(empty)
