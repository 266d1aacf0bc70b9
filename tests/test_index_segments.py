"""Unit tests for the mmap segment subsystem.

The equivalence suite (test_index_searcher_equivalence.py) proves
segment-backed rankings are byte-identical to in-memory ones; this
file covers the machinery itself: the binary format, the manifest
directory, merge-policy selection, and the SegmentedIndex lifecycle.
"""

from __future__ import annotations

import os
import random
import stat
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import IndexError_
from repro.index.documents import Document
from repro.index.inverted import InvertedIndex
from repro.index.postings import Posting, PostingsList
from repro.index.searcher import IndexSearcher
from repro.index.segments import (
    MAGIC,
    SHARDS_NAME,
    MmapSegment,
    NoMergePolicy,
    SegmentDirectory,
    SegmentedIndex,
    TieredMergePolicy,
    file_crc32,
    make_merge_policy,
    merge_postings,
    open_segment_index,
    write_segment,
)
from repro.index.segments.merge import kill_set, union_postings


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


def commit_events(monkeypatch) -> list[tuple[str, str]]:
    """Record every ``os.fsync`` (of a file or a directory) and every
    ``Path.replace`` rename, in order."""
    events: list[tuple[str, str]] = []
    fsync, replace = os.fsync, Path.replace

    def spy_fsync(fd):
        kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
        events.append(("fsync", kind))
        return fsync(fd)

    def spy_replace(self, target):
        events.append(("rename", Path(target).name))
        return replace(self, target)

    monkeypatch.setattr(os, "fsync", spy_fsync)
    monkeypatch.setattr(Path, "replace", spy_replace)
    return events


def synced_after_rename(events: list[tuple[str, str]], name: str) -> bool:
    """Whether a directory fsync follows the last rename onto ``name``."""
    renamed = max(i for i, event in enumerate(events)
                  if event == ("rename", name))
    return ("fsync", "dir") in events[renamed + 1:]


class TestCommitDurability:
    """A rename is durable only once its directory is fsynced: without
    that, a power cut can bring the previous manifest back."""

    def test_manifest_rename_is_followed_by_directory_fsync(
            self, tmp_path, monkeypatch):
        index = SegmentedIndex.open(tmp_path / "d", create=True)
        index.add(Document(1, "a", terms=["patient"]))
        events = commit_events(monkeypatch)
        index.flush()
        assert ("rename", "seg_00000001.seg") in events
        assert synced_after_rename(events, "MANIFEST.json")

    def test_shards_marker_rename_is_followed_by_directory_fsync(
            self, tmp_path, monkeypatch):
        events = commit_events(monkeypatch)
        open_segment_index(tmp_path / "s", shards=2, create=True)
        assert synced_after_rename(events, SHARDS_NAME)


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

    def test_cold_open_decodes_no_postings(self, tmp_path, monkeypatch):
        """Opening maps the segments and reads the manifest, whatever
        the corpus size; postings and documents decode only when a
        search asks for them."""
        index = SegmentedIndex.open(tmp_path / "d", create=True)
        for i, document in enumerate(small_index(count=200).documents()):
            index.add(document)
            if (i + 1) % 50 == 0:
                index.flush()
        decoded: list[str] = []

        def counting(name: str):
            original = getattr(MmapSegment, name)

            def wrapper(self, *args):
                decoded.append(name)
                return original(self, *args)
            return wrapper

        for name in ("_postings_at", "_decode_document"):
            monkeypatch.setattr(MmapSegment, name, counting(name))
        reopened = SegmentedIndex.open(tmp_path / "d")
        assert reopened.segment_count == 4
        assert decoded == []
        assert IndexSearcher(reopened).search(["patient"], top_n=5)
        assert "_postings_at" in decoded

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
        """Flushes, tombstones and merges write exactly the pinned bytes
        (segment format 2, payloads included; the merged segments were
        checked byte-identical to a fresh write of their live
        documents when the pin was taken), so the off-lock merge and
        the kill-set intersection change nothing on disk."""
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
                                   terms=terms, payload=f"p{i}".encode()))
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
            "seg_00000001.seg": "9f930192",
            "seg_00000002.seg": "01370d57",
            "seg_00000003.seg": "ce2bef6d",
            "seg_00000005.seg": "2c579463",
            "seg_00000006.seg": "4eebf2e6",
            "seg_00000008.seg": "a7eb732e",
            "seg_00000009.seg": "b8f5fd00",
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


class MergeAll:
    """Merge every segment into one, and rewrite a lone segment that
    still carries tombstones."""

    def select(self, live_sizes, dead_counts):
        if len(live_sizes) > 1 or (live_sizes and dead_counts[0]):
            return list(range(len(live_sizes)))
        return None


#: Mixed ASCII and non-ASCII terms: the dictionary's byte order and the
#: k-way term walk must agree with ``sorted`` on code points.
VOCAB = ["patient", "height", "salary", "orbit", "kelp", "höhe", "été",
         "code"]

OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("add"),
                  st.lists(st.sampled_from(VOCAB), min_size=1, max_size=8)),
        st.tuples(st.just("replace"), st.integers(0, 1 << 16),
                  st.lists(st.sampled_from(VOCAB), min_size=1, max_size=8)),
        st.tuples(st.just("remove"), st.integers(0, 1 << 16)),
        st.tuples(st.just("flush")),
    ),
    min_size=1, max_size=40)


def apply_operations(index: SegmentedIndex, operations, after_flush=None
                     ) -> dict[int, Document]:
    """Replay ``operations``; returns the live documents by id.

    ``replace`` and ``remove`` pick a live document by the drawn
    integer, so replaced documents keep old ids and interleave with
    newer ones across segments.
    """
    live: dict[int, Document] = {}
    next_id = 0
    for operation in operations:
        kind = operation[0]
        if kind == "add":
            document = Document(next_id, f"d{next_id}", summary="s",
                                terms=list(operation[1]))
            index.add(document)
            live[next_id] = document
            next_id += 1
        elif kind in ("replace", "remove") and live:
            doc_id = sorted(live)[operation[1] % len(live)]
            if kind == "replace":
                document = Document(doc_id, f"r{doc_id}",
                                    terms=list(operation[2]))
                index.replace(document)
                live[doc_id] = document
            else:
                index.remove(doc_id)
                del live[doc_id]
        elif kind == "flush":
            index.flush()
            if after_flush is not None:
                after_flush(live)
    return live


def fresh_index(live: dict[int, Document]) -> InvertedIndex:
    index = InvertedIndex()
    for document in live.values():
        index.add(document)
    return index


PROPERTY_SETTINGS = settings(
    max_examples=100, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])


class TestMergeStreamsColumns:
    def test_merge_builds_no_postings_and_searches_no_dictionary(
            self, tmp_path, monkeypatch):
        """Compaction streams columns: no ``Posting`` per (term, doc)
        and no binary search of a segment's term dictionary."""
        index = SegmentedIndex.open(tmp_path / "d", create=True)
        for batch in range(5):
            for i in range(batch * 10, batch * 10 + 10):
                index.add(Document(i, f"d{i}", terms=[
                    VOCAB[i % len(VOCAB)], VOCAB[(i * 3) % len(VOCAB)],
                    "patient", f"rare{i}"]))
            index.flush()
        for i in range(0, 50, 7):
            index.remove(i)
        index.replace(Document(3, "r3", terms=["salary", "orbit"]))
        index.flush()
        assert index.segment_count == 6 and index.deleted_count == 9
        counts = {"_term_ordinal": 0, "Posting": 0}
        term_ordinal, posting_init = MmapSegment._term_ordinal, \
            Posting.__init__

        def counting_ordinal(self, term):
            counts["_term_ordinal"] += 1
            return term_ordinal(self, term)

        def counting_init(self, *args, **kwargs):
            counts["Posting"] += 1
            posting_init(self, *args, **kwargs)

        monkeypatch.setattr(MmapSegment, "_term_ordinal", counting_ordinal)
        monkeypatch.setattr(Posting, "__init__", counting_init)
        assert index.maybe_merge(TieredMergePolicy(
            max_per_tier=1, floor_docs=64)) == 6
        assert counts == {"_term_ordinal": 0, "Posting": 0}
        assert index.segment_count == 1 and index.deleted_count == 0
        # The spies are not blind: a term lookup and a per-document
        # positions read trip both.
        assert index.postings("patient").get(1).positions == [2]
        assert counts["_term_ordinal"] > 0 and counts["Posting"] > 0

    @PROPERTY_SETTINGS
    @given(operations=OPERATIONS)
    def test_merged_segment_bytes_equal_a_fresh_write(self, operations):
        """Merging down to one segment writes exactly the file a fresh
        in-memory index over the same live documents writes."""
        with tempfile.TemporaryDirectory() as root:
            index = SegmentedIndex.open(Path(root) / "d", create=True)
            live = apply_operations(index, operations)
            index.flush()
            while index.maybe_merge(MergeAll()):
                pass
            if not live:
                assert index.segment_count == 0
                return
            assert index.segment_count == 1 and index.deleted_count == 0
            merged = sorted((Path(root) / "d").glob("seg_*.seg"))
            assert len(merged) == 1
            fresh = Path(root) / "fresh.seg"
            write_segment(fresh, fresh_index(live))
            assert merged[0].read_bytes() == fresh.read_bytes()

    @PROPERTY_SETTINGS
    @given(operations=OPERATIONS)
    def test_partial_tiered_merges_keep_pages_identical(self, operations):
        """After every flush and the tiered merges it triggers, search
        pages equal the in-memory index's over the live documents."""
        queries = [["patient"], ["höhe", "été"], ["salary", "code", "kelp"],
                   VOCAB]
        policy = TieredMergePolicy(max_per_tier=2, floor_docs=4)

        with tempfile.TemporaryDirectory() as root:
            index = SegmentedIndex.open(Path(root) / "d", create=True)

            def merge_and_compare(live):
                while index.maybe_merge(policy):
                    pass
                want = IndexSearcher(fresh_index(live))
                got = IndexSearcher(index)
                for query in queries:
                    for top_n in (3, 50):
                        assert got.search(query, top_n=top_n) == \
                            want.search(query, top_n=top_n)

            live = apply_operations(index, operations, merge_and_compare)
            index.flush()
            merge_and_compare(live)


class TestMergePostings:
    def test_runs_match_a_sorted_reference_with_positions(self):
        """Interleaved sources with tombstones merge to the sorted union
        of their live postings, positions included, and merged views
        merge again, by runs or by the shard union's sort."""
        rng = random.Random(3)
        sources = []
        expected = {}
        for s in range(4):
            plist = PostingsList("t")
            ids = sorted(rng.sample(range(200), 30))
            for doc_id in ids:
                for _ in range(rng.randint(1, 3)):
                    plist.add(doc_id, rng.randint(0, 99))
            sources.append(plist)
        seen: set[int] = set()
        pairs = []
        for plist in sources:
            kill = {doc_id for doc_id in plist.doc_ids()
                    if doc_id in seen or rng.random() < 0.2}
            seen.update(plist.doc_ids())
            pairs.append((plist, kill))
            for doc_id in plist.doc_ids():
                if doc_id not in kill:
                    expected[doc_id] = plist.get(doc_id).positions
        half = len(pairs) // 2
        left = merge_postings("t", pairs[:half])
        right = merge_postings("t", pairs[half:])
        for merged in (merge_postings("t", pairs),
                       merge_postings("t", [(left, set()),
                                            (right, set())]),
                       union_postings("t", [left, None, right])):
            assert merged.doc_ids() == sorted(expected)
            assert list(merged.frequencies_array()) == [
                len(expected[d]) for d in sorted(expected)]
            assert list(merged.positions_array()) == [
                p for d in sorted(expected) for p in expected[d]]
            assert [(p.doc_id, p.positions) for p in merged] == [
                (d, expected[d]) for d in sorted(expected)]
            for doc_id in sorted(expected)[::5]:
                assert merged.get(doc_id).positions == expected[doc_id]
            assert merged.get(1000) is None

    def test_union_of_round_robin_shards(self):
        """Doc ids alternating across shards (one run per posting) union
        to the sorted postings; a lone source passes through as is."""
        shards = [PostingsList("t") for _ in range(3)]
        for doc_id in range(40):
            for position in range(doc_id % 4 + 1):
                shards[doc_id % 3].add(doc_id, position)
        union = union_postings("t", shards)
        assert union.doc_ids() == list(range(40))
        assert list(union.frequencies_array()) == [
            d % 4 + 1 for d in range(40)]
        assert list(union.positions_array()) == [
            p for d in range(40) for p in range(d % 4 + 1)]
        assert union.get(17).positions == [0, 1]
        assert union_postings("t", [None, shards[1], PostingsList("t")]) \
            is shards[1]
        assert union_postings("t", [None, PostingsList("t")]) is None
