"""Unit tests for the mmap segment subsystem.

The equivalence suite (test_index_searcher_equivalence.py) proves
segment-backed rankings are byte-identical to in-memory ones; this
file covers the machinery itself: the binary format, the manifest
directory, merge-policy selection, and the SegmentedIndex lifecycle.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import IndexError_
from repro.index.documents import Document
from repro.index.inverted import InvertedIndex
from repro.index.segments import (
    MAGIC,
    MmapSegment,
    NoMergePolicy,
    SegmentDirectory,
    SegmentedIndex,
    TieredMergePolicy,
    file_crc32,
    make_merge_policy,
    write_segment,
)
from repro.index.segments.merge import kill_set


def small_index(count: int = 20, seed: int = 11) -> InvertedIndex:
    rng = random.Random(seed)
    words = ["patient", "height", "salary", "orbit", "kelp", "ledger",
             "status", "code", "quasar", "fjord"]
    index = InvertedIndex()
    for i in range(count):
        terms = [rng.choice(words) for _ in range(rng.randint(2, 9))]
        index.add(Document(i, f"doc{i}", summary=f"s{i}", terms=terms))
    return index


class TestSegmentFormat:
    def test_roundtrip_postings_and_documents(self, tmp_path):
        index = small_index()
        path = tmp_path / "a.seg"
        write_segment(path, index)
        segment = MmapSegment(path)
        assert segment.document_count == index.document_count
        assert list(segment.vocabulary()) == sorted(index.vocabulary())
        for term in index.vocabulary():
            want = index.postings(term)
            got = segment.postings(term)
            assert list(got.doc_ids()) == list(want.doc_ids())
            for doc_id in want.doc_ids():
                assert got.frequency(doc_id) == want.frequency(doc_id)
                assert got.get(doc_id).positions == \
                    want.get(doc_id).positions
            assert got.max_frequency == want.max_frequency
            assert got.collection_frequency == want.collection_frequency
        for doc_id in index.doc_ids() if hasattr(index, "doc_ids") else \
                [d.doc_id for d in index.documents()]:
            assert segment.norm(doc_id) == index.norm(doc_id)
            assert segment.document(doc_id) == index.document(doc_id)

    def test_empty_segment(self, tmp_path):
        path = tmp_path / "empty.seg"
        write_segment(path, InvertedIndex())
        segment = MmapSegment(path)
        assert segment.document_count == 0
        assert list(segment.vocabulary()) == []
        assert segment.postings("anything") is None

    def test_magic_prefix(self, tmp_path):
        path = tmp_path / "a.seg"
        write_segment(path, small_index(3))
        assert path.read_bytes()[:8] == MAGIC

    def test_unknown_term_and_missing_doc(self, tmp_path):
        path = tmp_path / "a.seg"
        write_segment(path, small_index(5))
        segment = MmapSegment(path)
        assert segment.postings("zzz-absent") is None
        assert segment.document_frequency("zzz-absent") == 0
        assert not segment.has_document(99999)

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.seg"
        path.write_bytes(b"NOTASEG!" * 64)
        with pytest.raises(IndexError_, match="bad magic"):
            MmapSegment(path)

    def test_rejects_future_version(self, tmp_path):
        path = tmp_path / "a.seg"
        write_segment(path, small_index(3))
        blob = bytearray(path.read_bytes())
        blob[8] = 0xFE  # format version field
        path.write_bytes(bytes(blob))
        with pytest.raises(IndexError_, match="unsupported format"):
            MmapSegment(path)

    def test_detects_truncation(self, tmp_path):
        path = tmp_path / "a.seg"
        write_segment(path, small_index(3))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(IndexError_, match="truncated"):
            MmapSegment(path)

    def test_detects_header_corruption(self, tmp_path):
        """The CRC guards the header (counts and section offsets) —
        the part whose corruption would misdirect every later read."""
        path = tmp_path / "a.seg"
        write_segment(path, small_index(3))
        blob = bytearray(path.read_bytes())
        blob[24] ^= 0xFF  # inside the doc_count field
        path.write_bytes(bytes(blob))
        with pytest.raises(IndexError_, match="checksum"):
            MmapSegment(path)


class TestSegmentDirectory:
    def test_create_and_reopen(self, tmp_path):
        directory = SegmentDirectory.open(tmp_path / "d", create=True)
        assert directory.read_manifest()["segments"] == []
        again = SegmentDirectory.open(tmp_path / "d")
        assert again.read_manifest()["next_id"] == \
            directory.read_manifest()["next_id"]

    def test_missing_manifest_rejected(self, tmp_path):
        (tmp_path / "d").mkdir()
        with pytest.raises(IndexError_, match="MANIFEST"):
            SegmentDirectory.open(tmp_path / "d")

    def test_orphan_sweep(self, tmp_path):
        directory = SegmentDirectory.open(tmp_path / "d", create=True)
        orphan = directory.segment_path(7)
        orphan.write_bytes(b"junk")
        stale_tmp = tmp_path / "d" / "seg_00000009.seg.tmp"
        stale_tmp.write_bytes(b"junk")
        directory.write_manifest(next_id=1, last_change_id=0, segments=[])
        assert not orphan.exists()
        assert not stale_tmp.exists()

    def test_manifest_keeps_referenced_segments(self, tmp_path):
        index = small_index(4)
        directory = SegmentDirectory.open(tmp_path / "d", create=True)
        path = directory.segment_path(0)
        write_segment(path, index)
        directory.write_manifest(next_id=1, last_change_id=5,
                                 segments=[{"file": path.name,
                                            "deleted": []}])
        assert path.exists()
        manifest = directory.read_manifest()
        assert manifest["segments"][0]["file"] == path.name
        assert manifest["last_change_id"] == 5


class TestMergePolicies:
    def test_factory(self):
        assert isinstance(make_merge_policy("tiered"), TieredMergePolicy)
        assert isinstance(make_merge_policy("none"), NoMergePolicy)
        with pytest.raises(IndexError_, match="unknown merge policy"):
            make_merge_policy("bogus")

    def test_no_merge_policy_never_selects(self):
        assert NoMergePolicy().select([10, 10, 10], [0, 0, 0]) is None

    def test_tiered_selects_overfull_tier(self):
        policy = TieredMergePolicy(max_per_tier=2, tier_factor=10,
                                   floor_docs=100)
        # Three floor-tier segments: one over the per-tier budget.
        picked = policy.select([50, 60, 70], [0, 0, 0])
        assert len(picked) == 3
        # Two is within budget: nothing to do.
        assert policy.select([50, 60], [0, 0]) is None

    def test_tiered_ignores_distinct_tiers(self):
        policy = TieredMergePolicy(max_per_tier=2, tier_factor=10,
                                   floor_docs=100)
        assert policy.select([50, 5_000, 500_000], [0, 0, 0]) is None

    def test_dead_fraction_triggers_rewrite(self):
        policy = TieredMergePolicy(max_per_tier=8, max_dead_fraction=0.3)
        picked = policy.select([100, 100], [60, 0])
        assert picked == [0]


class TestSegmentedIndexLifecycle:
    def test_flush_and_reopen_resumes_cursor(self, tmp_path):
        index = SegmentedIndex.open(tmp_path / "d", create=True)
        for i in range(10):
            index.add(Document(i, f"d{i}", terms=["patient", "code"]))
        index.flush(last_change_id=42)
        reopened = SegmentedIndex.open(tmp_path / "d")
        assert reopened.document_count == 10
        assert reopened.last_change_id == 42
        assert reopened.segment_count == 1

    def test_unflushed_delta_is_not_persisted(self, tmp_path):
        index = SegmentedIndex.open(tmp_path / "d", create=True)
        index.add(Document(1, "a", terms=["patient"]))
        index.flush()
        index.add(Document(2, "b", terms=["salary"]))
        assert SegmentedIndex.open(tmp_path / "d").document_count == 1

    def test_mutations_bump_generation_swaps_do_not(self, tmp_path):
        index = SegmentedIndex.open(tmp_path / "d", create=True)
        generation = index.generation
        index.add(Document(1, "a", terms=["patient"]))
        assert index.generation == generation + 1
        generation = index.generation
        index.flush()
        assert index.generation == generation
        index.remove(1)
        assert index.generation == generation + 1

    def test_replace_shadows_segment_copy(self, tmp_path):
        index = SegmentedIndex.open(tmp_path / "d", create=True)
        index.add(Document(1, "old", terms=["patient", "height"]))
        index.flush()
        index.replace(Document(1, "new", terms=["salary"]))
        assert index.document(1).title == "new"
        assert index.document_frequency("patient") == 0
        assert index.document_frequency("salary") == 1
        assert index.document_count == 1

    def test_merge_purges_tombstones(self, tmp_path):
        index = SegmentedIndex.open(tmp_path / "d", create=True)
        for batch in range(4):
            for i in range(batch * 10, batch * 10 + 10):
                index.add(Document(i, f"d{i}", terms=["patient", "code"]))
            index.flush()
        for i in range(0, 40, 2):
            index.remove(i)
        index.flush()
        assert index.segment_count == 4
        assert index.deleted_count == 20
        policy = TieredMergePolicy(max_per_tier=1, floor_docs=8)
        while index.maybe_merge(policy):  # one merge per call
            pass
        assert index.segment_count == 1
        assert index.deleted_count == 0
        assert index.document_count == 20
        reopened = SegmentedIndex.open(tmp_path / "d")
        assert reopened.document_count == 20
        assert not reopened.has_document(0)
        assert reopened.has_document(1)

    def test_no_merge_policy_leaves_segments(self, tmp_path):
        index = SegmentedIndex.open(tmp_path / "d", create=True)
        for batch in range(3):
            index.add(Document(batch, f"d{batch}", terms=["patient"]))
            index.flush()
        assert index.maybe_merge(NoMergePolicy()) == 0
        assert index.segment_count == 3

    def test_clear_drops_everything(self, tmp_path):
        index = SegmentedIndex.open(tmp_path / "d", create=True)
        for i in range(5):
            index.add(Document(i, f"d{i}", terms=["patient"]))
        index.flush()
        index.clear()
        assert index.document_count == 0
        assert len(index) == 0
        index.flush()
        assert SegmentedIndex.open(tmp_path / "d").document_count == 0

    def test_contains_and_len_protocol(self, tmp_path):
        index = SegmentedIndex.open(tmp_path / "d", create=True)
        index.add(Document(1, "a", terms=["patient", "height"]))
        index.flush()
        index.add(Document(2, "b", terms=["salary"]))
        assert 1 in index  # membership is by doc_id, like InvertedIndex
        assert 2 in index
        assert 99 not in index
        assert "patient" not in index  # strings never match doc ids
        assert len(index) == 2
        assert index.term_count == 3

    def test_documents_iterates_live_docs_once(self, tmp_path):
        index = SegmentedIndex.open(tmp_path / "d", create=True)
        index.add(Document(1, "a", terms=["patient"]))
        index.flush()
        index.replace(Document(1, "a2", terms=["patient"]))
        index.add(Document(2, "b", terms=["salary"]))
        titles = sorted(d.title for d in index.documents())
        assert titles == ["a2", "b"]

    def test_segment_bytes_pinned_for_fixed_operation_sequence(
            self, tmp_path):
        """Flushes, tombstones and merges write exactly the bytes the
        locked single-step merge wrote (CRCs recorded from it), so the
        off-lock merge and the kill-set intersection change nothing on
        disk."""
        root = tmp_path / "d"
        index = SegmentedIndex.open(root, create=True)
        rng = random.Random(5)
        words = ["patient", "height", "salary", "orbit", "kelp", "ledger",
                 "status", "code", "quasar", "fjord"]
        policy = TieredMergePolicy(max_per_tier=2, floor_docs=16)
        merges = []
        crcs: dict[str, str] = {}
        for batch in range(6):
            for i in range(batch * 25, batch * 25 + 25):
                # Common words take the probing branch of the kill set,
                # one-document ``rare`` terms the intersecting one.
                terms = [rng.choice(words)
                         for _ in range(rng.randint(2, 9))]
                terms.append(f"rare{i}")
                index.add(Document(i, f"d{i}", summary=f"s{i}",
                                   terms=terms))
            for doc_id in rng.sample(range(batch * 25 + 25), 6):
                if index.has_document(doc_id):
                    index.remove(doc_id)
            index.flush(last_change_id=batch)
            while merged := index.maybe_merge(policy):
                merges.append(merged)
            for path in root.glob("seg_*.seg"):
                crcs.setdefault(path.name, f"{file_crc32(path):08x}")
        assert merges == [3, 1, 3]
        assert dict(sorted(crcs.items())) == {
            "seg_00000001.seg": "6f5aca12",
            "seg_00000002.seg": "b22bf6c6",
            "seg_00000003.seg": "1edd04f8",
            "seg_00000005.seg": "1ae95499",
            "seg_00000006.seg": "dd682e9e",
            "seg_00000008.seg": "5b175de1",
            "seg_00000009.seg": "46831d17",
        }

    def test_kill_set_equals_probing_on_both_sides(self, tmp_path):
        path = tmp_path / "a.seg"
        write_segment(path, small_index(count=40))
        segment = MmapSegment(path)
        for dead in (set(), {3}, {1, 2, 3, 99}, set(range(0, 80, 3))):
            for term in segment.vocabulary():
                postings = segment.postings(term)
                assert kill_set(postings, dead) == {
                    doc_id for doc_id in dead
                    if postings.frequency(doc_id)}

    def test_snapshot_cached_per_generation(self, tmp_path):
        index = SegmentedIndex.open(tmp_path / "d", create=True)
        index.add(Document(1, "a", terms=["patient"]))
        snap = index.snapshot()
        assert index.snapshot() is snap
        index.flush()  # swap: snapshot identity may change, content not
        assert index.snapshot().norms == snap.norms
        index.add(Document(2, "b", terms=["salary"]))
        assert index.snapshot() is not snap
