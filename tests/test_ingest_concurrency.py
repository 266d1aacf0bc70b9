"""Reads never wait for a writer.

The indexer builds each refresh batch off the index lock and publishes
it in one short locked step; a segment merge writes its output with
the lock released and swaps it in under the lock.  These tests park
the writer inside the unlocked part on ``threading.Event`` gates and
check that a reader completes meanwhile and sees the previous state,
that it sees the new state once the writer finishes, and that the
writers that do still wait (a second flush) lose nothing.  Nothing
here sleeps: every wait is an event or a join with a timeout.
"""

from __future__ import annotations

import threading

import repro.index.segments.segmented as segmented_module
import repro.repository.indexer as indexer_module
from repro.core.config import SchemrConfig
from repro.corpus.generator import CorpusGenerator
from repro.index.documents import Document
from repro.index.searcher import IndexSearcher
from repro.index.segments import (
    CompactionView,
    SegmentedIndex,
    TieredMergePolicy,
    open_segment_index,
    verify_directory,
    write_segment,
)
from repro.repository.indexer import RepositoryIndexer
from repro.repository.store import SchemaRepository
from repro.resilience.faults import FAULTS
from repro.sharding import ShardedEngine

from tests.conftest import (build_clinic_schema, build_conservation_schema,
                            build_hr_schema)

#: How long a reader may take while the writer is parked.  A reader
#: that still waited on the writer would wait until the gate opens.
READ_BOUND_S = 1.0
#: Bound on every other wait, so a regression fails instead of hanging.
WAIT_S = 10.0
#: Merges every segment of a five-batch fixture in one step.
MERGE_ALL = TieredMergePolicy(max_per_tier=1, floor_docs=8)
WORDS = ["patient", "height", "salary", "orbit", "kelp", "ledger"]


class Gate:
    """Parks the thread that calls :meth:`park` until :meth:`open`."""

    def __init__(self) -> None:
        self.entered = threading.Event()
        self._released = threading.Event()

    def park(self) -> None:
        self.entered.set()
        self._released.wait(WAIT_S)

    def open(self) -> None:
        self._released.set()


def start(fn, *args) -> tuple[threading.Thread, dict]:
    """Run ``fn(*args)`` on a daemon thread; the dict gets its
    ``value`` or ``error``."""
    outcome: dict = {}

    def run() -> None:
        try:
            outcome["value"] = fn(*args)
        except BaseException as exc:  # lint: fault-boundary (collected errors re-raised by the asserting thread)
            outcome["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, outcome


def read_within_bound(fn) -> object:
    """``fn()`` on another thread; fails if it takes past the bound."""
    reader, outcome = start(fn)
    reader.join(READ_BOUND_S)
    assert not reader.is_alive(), "a read waited on the parked writer"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def park_merge_writes(monkeypatch) -> Gate:
    """Park every compaction write (flush writes pass straight through)."""
    gate = Gate()

    def parked(path, index) -> None:
        if isinstance(index, CompactionView):
            gate.park()
        write_segment(path, index)

    monkeypatch.setattr(segmented_module, "write_segment", parked)
    return gate


def five_segments(index, per_batch: int = 10):
    """Five flushed batches of ``per_batch`` documents each."""
    for batch in range(5):
        for i in range(batch * per_batch, (batch + 1) * per_batch):
            index.add(Document(i, f"d{i}", terms=[
                WORDS[i % len(WORDS)], WORDS[(i * 5) % len(WORDS)],
                "common"]))
        index.flush(last_change_id=batch + 1)
    return index


def ranked(searcher: IndexSearcher) -> list[tuple[int, float]]:
    return [(hit.doc_id, hit.score)
            for hit in searcher.search(["common", "salary"], top_n=100)]


def segment_bytes(tmp_path, index, name: str) -> bytes:
    path = tmp_path / f"{name}.seg"
    write_segment(path, index)
    return path.read_bytes()


class TestRefreshBuildsOffLock:
    def test_reader_completes_while_refresh_build_is_parked(
            self, monkeypatch):
        with SchemaRepository.in_memory() as repo:
            repo.add_schema(build_clinic_schema())
            indexer = RepositoryIndexer(repo)
            indexer.refresh()
            searcher = IndexSearcher(indexer.index)
            before = indexer.index.generation
            added = repo.add_schema(build_hr_schema())
            gate = Gate()
            real = indexer_module.document_from_schema

            def parked(schema, **kwargs):
                gate.park()
                return real(schema, **kwargs)

            monkeypatch.setattr(indexer_module, "document_from_schema",
                                parked)
            writer, wrote = start(indexer.refresh)
            try:
                assert gate.entered.wait(WAIT_S)
                hits, generation = read_within_bound(lambda: (
                    searcher.search(["patient", "salary"], top_n=10),
                    indexer.index.generation))
                assert generation == before
                assert added not in {hit.doc_id for hit in hits}
                # /readyz stays ready: nothing is published yet.
                assert not indexer.refreshing
            finally:
                gate.open()
                writer.join(WAIT_S)
            assert not writer.is_alive()
            assert wrote == {"value": 1}
            assert indexer.index.generation > before
            hits = searcher.search(["salary"], top_n=10)
            assert added in {hit.doc_id for hit in hits}

    def test_failed_build_publishes_nothing(self, monkeypatch):
        with SchemaRepository.in_memory() as repo:
            first = repo.add_schema(build_clinic_schema())
            indexer = RepositoryIndexer(repo)
            indexer.refresh()
            repo.add_schema(build_hr_schema())
            repo.delete_schema(first)
            cursor = indexer.last_change_id

            def broken(schema, **kwargs):
                raise RuntimeError("flattening failed")

            monkeypatch.setattr(indexer_module, "document_from_schema",
                                broken)
            try:
                indexer.refresh()
            except RuntimeError:
                pass
            else:
                raise AssertionError("the build failure was swallowed")
            # The delete sat in the same batch: it must not have been
            # published without the add.
            assert indexer.index.has_document(first)
            assert indexer.last_change_id == cursor
            monkeypatch.undo()
            assert indexer.refresh() == 2
            assert not indexer.index.has_document(first)


class TestMergeWritesOffLock:
    def test_reader_completes_while_merge_write_is_parked(
            self, tmp_path, monkeypatch):
        index = five_segments(SegmentedIndex.open(tmp_path / "d",
                                                  create=True))
        searcher = IndexSearcher(index)
        generation = index.generation
        expected = ranked(searcher)
        gate = park_merge_writes(monkeypatch)
        merger, merged = start(index.maybe_merge, MERGE_ALL)
        try:
            assert gate.entered.wait(WAIT_S)
            page, segments = read_within_bound(
                lambda: (ranked(searcher), index.segment_count))
            assert segments == 5  # still the old layout
            assert page == expected
        finally:
            gate.open()
            merger.join(WAIT_S)
        assert merged == {"value": 5}
        assert index.segment_count == 1
        assert index.generation == generation  # swaps never bump
        assert ranked(searcher) == expected

    def test_remove_during_parked_merge_stays_tombstoned(
            self, tmp_path, monkeypatch):
        root = tmp_path / "d"
        index = five_segments(SegmentedIndex.open(root, create=True))
        gate = park_merge_writes(monkeypatch)
        merger, merged = start(index.maybe_merge, MERGE_ALL)
        try:
            assert gate.entered.wait(WAIT_S)
            # Both land on segments the merge is rewriting.
            read_within_bound(lambda: (index.remove(7), index.remove(23)))
        finally:
            gate.open()
            merger.join(WAIT_S)
        assert merged == {"value": 5}
        assert index.segment_count == 1
        assert index.deleted_count == 2  # carried into the merged segment
        assert not index.has_document(7)
        assert not index.has_document(23)
        assert index.document_count == 48
        # The merge's own commit recorded the late tombstones.
        assert verify_directory(root).ok
        reopened = SegmentedIndex.open(root)
        assert not reopened.has_document(7)
        assert segment_bytes(tmp_path, reopened, "reopened") == \
            segment_bytes(tmp_path, index, "live")

    def test_clear_during_parked_merge_discards_the_merge(
            self, tmp_path, monkeypatch):
        """A rebuild's clear holds only the writers' lock, so it does not
        wait for a merge write; the merge then finds its inputs gone and
        commits nothing, and the next commit sweeps its file."""
        root = tmp_path / "d"
        index = five_segments(SegmentedIndex.open(root, create=True))
        gate = park_merge_writes(monkeypatch)
        merger, merged = start(index.maybe_merge, MERGE_ALL)
        try:
            assert gate.entered.wait(WAIT_S)
            read_within_bound(index.clear)
        finally:
            gate.open()
            merger.join(WAIT_S)
        assert merged == {"value": 0}
        assert index.document_count == 0 and index.segment_count == 0
        index.add(Document(99, "d99", terms=["common"]))
        index.flush(last_change_id=6)
        assert verify_directory(root).ok
        assert [path.name for path in root.glob("*.seg")] == [
            segment.path.name for segment in index.view().segments]

    def test_flush_during_parked_merge_waits_and_loses_nothing(
            self, tmp_path, monkeypatch):
        root = tmp_path / "d"
        index = five_segments(SegmentedIndex.open(root, create=True))
        gate = park_merge_writes(monkeypatch)
        merger, merged = start(index.maybe_merge, MERGE_ALL)
        flusher = None
        try:
            assert gate.entered.wait(WAIT_S)
            index.add(Document(500, "late", terms=["late", "common"]))
            flusher, flushed = start(index.flush, 77)
            flusher.join(0.2)
            assert flusher.is_alive(), "flush ran beside the merge"
            assert index.delta_document_count == 1
        finally:
            gate.open()
            merger.join(WAIT_S)
            if flusher is not None:
                flusher.join(WAIT_S)
        assert merged == {"value": 5}
        assert flushed == {"value": True}
        assert index.segment_count == 2
        assert index.delta_document_count == 0
        reopened = SegmentedIndex.open(root)
        assert reopened.last_change_id == 77
        assert reopened.has_document(500)
        assert verify_directory(root).ok
        assert segment_bytes(tmp_path, reopened, "reopened") == \
            segment_bytes(tmp_path, index, "live")

    def test_sharded_merge_leaves_union_readable(self, tmp_path,
                                                 monkeypatch):
        index = five_segments(open_segment_index(
            tmp_path / "s", shards=2, create=True), per_batch=20)
        searcher = IndexSearcher(index)
        expected = ranked(searcher)
        gate = park_merge_writes(monkeypatch)
        merger, merged = start(index.maybe_merge, MERGE_ALL)
        try:
            assert gate.entered.wait(WAIT_S)
            assert read_within_bound(lambda: ranked(searcher)) == expected
        finally:
            gate.open()
            merger.join(WAIT_S)
        assert merged == {"value": 10}
        assert index.segment_count == 2
        assert ranked(searcher) == expected
        assert verify_directory(tmp_path / "s").ok

    def test_sharded_merge_under_traffic_matches_single_engine(
            self, tmp_path, monkeypatch):
        """Searches through the worker pool keep returning the single
        engine's pages while a merge rewrites the shards beneath the
        front, and after the next refresh reopens the workers onto the
        merged segments."""
        queries = [["patient", "name", "address"], ["order", "price"],
                   ["teacher", "course"]]
        generator = CorpusGenerator(seed=13)
        writer = SchemaRepository(str(tmp_path / "repo.db"))
        repo_flat = SchemaRepository(str(tmp_path / "repo.db"))
        repo_sharded = SchemaRepository(str(tmp_path / "repo.db"))
        flat = sharded = None

        def add_batch(refresh: bool = True) -> None:
            for generated in generator.stream(20):
                writer.add_schema(generated.schema)
            if refresh:
                repo_flat.indexer().refresh()
                repo_sharded.indexer().refresh()

        def pages(engine) -> list:
            return [engine.search(keywords=q) for q in queries]

        try:
            add_batch(refresh=False)  # the engines index it on open
            flat = repo_flat.engine(config=SchemrConfig(
                segment_dir=str(tmp_path / "flat"), candidate_pool=40))
            sharded = ShardedEngine(repo_sharded, config=SchemrConfig(
                segment_dir=str(tmp_path / "sharded"), shards=2,
                merge_policy="none", candidate_pool=40))
            add_batch()
            add_batch()  # three segments per shard, none merged
            assert sharded.index.segment_count == 6
            expected = pages(flat)
            assert pages(sharded) == expected
            gate = park_merge_writes(monkeypatch)
            merger, merged = start(sharded.index.maybe_merge, MERGE_ALL)
            try:
                assert gate.entered.wait(WAIT_S)
                assert read_within_bound(lambda: pages(sharded)) == expected
            finally:
                gate.open()
                merger.join(WAIT_S)
            assert merged == {"value": 6}
            assert sharded.index.segment_count == 2
            assert pages(sharded) == expected
            add_batch()  # workers reopen onto the merged segments
            assert pages(sharded) == pages(flat)
        finally:
            for engine in (sharded, flat):
                if engine is not None:
                    engine.close()
            for repo in (repo_sharded, repo_flat, writer):
                repo.close()


class TestDeletedBeforePublish:
    def test_delete_published_mid_search_serves_the_pinned_page(self):
        keywords = ["patient", "gender", "name", "site", "species"]

        def rows(page) -> list:
            return [(r.schema_id, f"{r.score:.6f}", f"{r.coarse_score:.6f}")
                    for r in page]

        with SchemaRepository.in_memory() as repo:
            repo.add_schema(build_clinic_schema())
            victim = repo.add_schema(build_clinic_schema("clinic_copy"))
            repo.add_schema(build_hr_schema())
            repo.add_schema(build_conservation_schema())
            engine = repo.engine(config=SchemrConfig(telemetry_enabled=True))
            try:
                before = engine.search(keywords)
                assert victim in {r.schema_id for r in before}
                failures = engine.store_breaker.failure_count
                repo.delete_schema(victim)  # committed, not yet published
                assert engine.searcher.index.has_document(victim)
                # The refresh that publishes the delete lands as phase 2
                # starts.  The search pinned its index view before phase
                # 1, so phase 2 reads that view too: the page is the
                # pre-delete generation's, victim and coarse scores
                # included, and nothing counts as a source failure.
                FAULTS.inject("engine.match_one", hook=repo.reindex,
                              times=1)
                page = engine.search(keywords)
                assert FAULTS.hits("engine.match_one") >= 1
                assert not engine.searcher.index.has_document(victim)
                assert engine.store_breaker.failure_count == failures
                snapshot = engine.telemetry.metrics.snapshot()
                assert snapshot.value("schemr_source_failures_total") == 0
                assert rows(page) == rows(before)
                # The next search pins the published delete.
                refreshed = engine.search(keywords)
                assert refreshed
                assert victim not in {r.schema_id for r in refreshed}
            finally:
                FAULTS.reset()
                engine.close()
