"""Unit tests for index persistence (the segment format)."""

import pytest

from repro.errors import IndexError_
from repro.index.documents import Document
from repro.index.inverted import InvertedIndex
from repro.index.segments import SegmentedIndex
from repro.index.store import load_index, save_index


@pytest.fixture
def index() -> InvertedIndex:
    idx = InvertedIndex()
    idx.add(Document(1, "clinic", summary="health",
                     terms=["patient", "height"]))
    idx.add(Document(2, "hr", terms=["employee", "salary"]))
    return idx


class TestRoundtrip:
    def test_documents_survive(self, index, tmp_path):
        path = tmp_path / "segment.seg"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.document_count == 2
        assert loaded.document(1).title == "clinic"
        assert loaded.document(1).summary == "health"
        assert loaded.document(2).terms == ["employee", "salary"]

    def test_statistics_survive(self, index, tmp_path):
        path = tmp_path / "segment.seg"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.document_frequency("patient") == \
            index.document_frequency("patient")
        assert loaded.norm(1) == index.norm(1)
        assert loaded.term_count == index.term_count

    def test_loads_as_segmented_index(self, index, tmp_path):
        path = tmp_path / "segment.seg"
        save_index(index, path)
        loaded = load_index(path)
        assert isinstance(loaded, SegmentedIndex)
        # Loaded indexes accept live mutations through the delta.
        loaded.add(Document(3, "late", terms=["patient"]))
        assert loaded.document_frequency("patient") == 2
        loaded.remove(1)
        assert loaded.document_count == 2

    def test_resave_of_loaded_index(self, index, tmp_path):
        """A loaded (and mutated) segmented index re-saves faithfully."""
        first = tmp_path / "first.seg"
        save_index(index, first)
        loaded = load_index(first)
        loaded.replace(Document(2, "hr2", terms=["employee", "bonus"]))
        second = tmp_path / "second.seg"
        save_index(loaded, second)
        again = load_index(second)
        assert again.document_count == 2
        assert again.document(2).title == "hr2"
        assert again.document_frequency("salary") == 0
        assert again.document_frequency("bonus") == 1

    def test_empty_index_roundtrips(self, tmp_path):
        path = tmp_path / "empty.seg"
        save_index(InvertedIndex(), path)
        assert load_index(path).document_count == 0

    def test_atomic_write_leaves_no_tmp(self, index, tmp_path):
        path = tmp_path / "segment.seg"
        save_index(index, path)
        assert not (tmp_path / "segment.seg.tmp").exists()

    def test_directory_roundtrip(self, index, tmp_path):
        """A segment directory loads as a multi-segment index."""
        segdir = tmp_path / "segments"
        live = SegmentedIndex.open(segdir, create=True)
        for document in index.documents():
            live.add(document)
        live.flush()
        loaded = load_index(segdir)
        assert isinstance(loaded, SegmentedIndex)
        assert loaded.document_count == 2
        assert loaded.norm(1) == index.norm(1)


class TestLegacyCompat:
    def test_new_saves_are_not_jsonl(self, index, tmp_path):
        path = tmp_path / "segment.seg"
        save_index(index, path)
        assert path.read_bytes()[:8] == b"SCHMRSEG"

    def test_non_segment_file_names_expected_magic(self, tmp_path,
                                                   recwarn):
        """The JSON-lines layout is gone: anything that is not a
        segment is rejected up front, with no deprecation path."""
        path = tmp_path / "old.jsonl"
        path.write_text('{"format": 1, "documents": 0}\n')
        with pytest.raises(IndexError_, match="expected magic b'SCHMRSEG'"):
            load_index(path)
        assert not recwarn.list


class TestCorruption:
    def test_missing_file(self, tmp_path):
        with pytest.raises(IndexError_, match="does not exist"):
            load_index(tmp_path / "ghost.seg")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.seg"
        path.write_text("")
        with pytest.raises(IndexError_, match="found b''"):
            load_index(path)

    def test_corrupt_header(self, tmp_path):
        path = tmp_path / "bad.seg"
        path.write_bytes(b"SCHMRSEX" + bytes(64))
        with pytest.raises(IndexError_, match="not a segment file"):
            load_index(path)

    def test_truncated_segment_detected(self, index, tmp_path):
        path = tmp_path / "segment.seg"
        save_index(index, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(IndexError_, match="truncated"):
            load_index(path)

    def test_corrupt_segment_header_detected(self, index, tmp_path):
        path = tmp_path / "segment.seg"
        save_index(index, path)
        blob = bytearray(path.read_bytes())
        blob[20] ^= 0xFF  # flip a header byte past the crc field
        path.write_bytes(bytes(blob))
        with pytest.raises(IndexError_, match="checksum"):
            load_index(path)

    def test_directory_without_manifest(self, tmp_path):
        empty = tmp_path / "segments"
        empty.mkdir()
        with pytest.raises(IndexError_, match="MANIFEST"):
            load_index(empty)
