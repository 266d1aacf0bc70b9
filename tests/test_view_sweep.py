"""A search reads one point-in-time index view: the interleaving sweep.

Every front-side read fault site runs against every writer op a serving
path has, on the memory, segmented, sharded and replica paths.  Each
case injects the op with ``FAULTS.inject(site, hook=op, times=1)``
inside one search, and the page must equal the undisturbed page of the
generation phase 1 saw: ids, names, final and coarse scores at
``%.6f``.  The schedules are enumerated, not sampled — each case is one
deterministic interleaving, in the manner of CHESS and ``loom``.

A retired segment must also stay readable by a view pinned before the
merge that retired it, and be unmapped once that view is dropped.
"""

from __future__ import annotations

import gc
import os
import signal
import time
import weakref

import pytest

from repro.core.config import SchemrConfig
from repro.core.engine import SchemrEngine
from repro.corpus.domains import domain_by_name
from repro.corpus.generator import CorpusGenerator
from repro.index.documents import Document, document_from_schema
from repro.index.segments import (SegmentedIndex, TieredMergePolicy,
                                  open_segment_index)
from repro.matching.ensemble import MatcherEnsemble
from repro.replication import DirectorySource, ReplicaSyncer
from repro.repository.store import SchemaRepository
from repro.resilience.faults import FAULTS
from repro.sharding import ShardedEngine

KEYWORDS = ["patient", "name", "address"]
#: Merges every segment of the layout in one step.
MERGE_ALL = TieredMergePolicy(max_per_tier=1, floor_docs=8)
CONFIG = dict(candidate_pool=30, query_cache_size=0)

#: Read sites every in-process search passes.
IN_PROCESS_SITES = (
    "engine.phase1", "engine.phase2", "engine.match_one",
    "profile_store.lookup",
    *(f"matcher.{name}"
      for name in MatcherEnsemble.default().matcher_names))
#: A sharded front runs the matchers in its workers; these are its own.
FRONT_SITES = ("engine.phase1", "engine.phase2")


def rows(page) -> list[tuple]:
    return [(r.schema_id, r.name, f"{r.score:.6f}",
             f"{r.coarse_score:.6f}") for r in page]


@pytest.fixture(autouse=True)
def clean_faults():
    FAULTS.reset()
    yield
    FAULTS.reset()


class World:
    """A repository, the index a path serves, and the writer ops."""

    def __init__(self, repo: SchemaRepository) -> None:
        self.repo = repo
        self.generator = CorpusGenerator(seed=13)
        for generated in self.generator.stream(40):
            repo.add_schema(generated.schema)
        for _ in range(8):
            repo.add_schema(self._patient_schema())

    def _patient_schema(self):
        return self.generator.generate_from_domain(
            domain_by_name("healthcare"), ("patient",)).schema

    # -- writer ops: each gets the undisturbed page --------------------

    def add(self, page) -> None:
        self.repo.add_schema(self._patient_schema())
        self.repo.reindex()

    def update(self, page) -> None:
        schema = self._patient_schema()
        schema.schema_id = page[0].schema_id
        self.repo.update_schema(schema)
        self.repo.reindex()

    def delete(self, page) -> None:
        self.repo.delete_schema(page[0].schema_id)
        self.repo.reindex()


def run_case(world: World, search, site: str, op) -> None:
    """The page of ``search()`` with ``op`` injected at ``site`` equals
    the undisturbed page searched just before."""
    expected = search()
    assert expected
    ran = []
    FAULTS.inject(site, hook=lambda: ran.append(op(expected)), times=1)
    actual = search()
    assert ran, f"{site} never fired"
    assert rows(actual) == rows(expected)


def in_process(index):
    """A fresh engine per search: cold profile cache, no query or
    result cache, so every site fires."""
    def search():
        engine = SchemrEngine(index=index, config=SchemrConfig(**CONFIG))
        try:
            return engine.search(keywords=KEYWORDS)
        finally:
            engine.close()
    return search


# -- memory --------------------------------------------------------------------

@pytest.fixture(scope="module")
def memory_world():
    with SchemaRepository.in_memory() as repo:
        world = World(repo)
        repo.reindex()
        yield world


@pytest.mark.parametrize("op", ["add", "update", "delete"])
@pytest.mark.parametrize("site", IN_PROCESS_SITES)
def test_memory_path(memory_world, site, op):
    world = memory_world
    run_case(world, in_process(world.repo.indexer().index), site,
             getattr(world, op))


# -- segmented -----------------------------------------------------------------

@pytest.fixture(scope="module")
def segmented_world(tmp_path_factory):
    root = tmp_path_factory.mktemp("segmented")
    with SchemaRepository.in_memory() as repo:
        world = World(repo)
        repo.indexer(segment_dir=str(root / "segs"),
                     merge_policy="none").refresh()
        yield world


def staged_flush(world: World, index):
    """Publish a write before the search, as a refresh does before it
    flushes; the op is that flush, at the write's change-log cursor."""
    schema = world._patient_schema()
    world.repo.add_schema(schema)
    index.replace(document_from_schema(schema))
    head = world.repo.changes_since(0)[-1][0]
    return lambda page: index.flush(last_change_id=head)


@pytest.mark.parametrize("op", ["add", "update", "delete", "flush",
                                "merge"])
@pytest.mark.parametrize("site", IN_PROCESS_SITES)
def test_segmented_path(segmented_world, site, op):
    world = segmented_world
    index = world.repo.indexer().index
    if op == "flush":
        hook = staged_flush(world, index)
    elif op == "merge":
        world.add(None)  # at least two segments to fold
        hook = lambda page: index.maybe_merge(MERGE_ALL)  # noqa: E731
    else:
        hook = getattr(world, op)
    run_case(world, in_process(index), site, hook)


# -- sharded -------------------------------------------------------------------

@pytest.fixture(scope="module")
def sharded_world(tmp_path_factory):
    root = tmp_path_factory.mktemp("sharded")
    with SchemaRepository(str(root / "repo.db")) as repo:
        world = World(repo)
        engine = ShardedEngine(repo, config=SchemrConfig(
            segment_dir=str(root / "segs"), shards=2, merge_policy="none",
            **CONFIG))
        try:
            yield world, engine
        finally:
            engine.close()


def kill_worker(engine: ShardedEngine):
    def kill(page) -> None:
        victim = engine.pool.workers[0]
        os.kill(victim.pid, signal.SIGKILL)
        deadline = time.monotonic() + 5.0
        while victim.process_alive and time.monotonic() < deadline:
            time.sleep(0.01)
    return kill


@pytest.mark.parametrize("op", ["add", "update", "delete", "flush",
                                "merge", "kill"])
@pytest.mark.parametrize("site", FRONT_SITES)
def test_sharded_path(sharded_world, site, op):
    world, engine = sharded_world
    index = engine.index
    if op == "flush":
        hook = staged_flush(world, index)
    elif op == "merge":
        world.add(None)
        hook = lambda page: index.maybe_merge(MERGE_ALL)  # noqa: E731
    elif op == "kill":
        assert engine.pool.usable(0, ready_timeout=5.0)
        hook = kill_worker(engine)
    else:
        hook = getattr(world, op)
    run_case(world, lambda: engine.search(keywords=KEYWORDS), site, hook)


# -- replica -------------------------------------------------------------------

@pytest.fixture(scope="module")
def replica_world(tmp_path_factory):
    root = tmp_path_factory.mktemp("replica")
    with SchemaRepository(str(root / "repo.db")) as repo:
        world = World(repo)
        repo.indexer(segment_dir=str(root / "primary")).refresh()
        syncer = ReplicaSyncer(DirectorySource(root / "primary"),
                               root / "replica")
        syncer.sync_once()
        index = open_segment_index(root / "replica", sweep=True)
        syncer.attach_index(index)
        yield world, syncer, index


@pytest.mark.parametrize("write", ["add", "update", "delete"])
@pytest.mark.parametrize("site", IN_PROCESS_SITES)
def test_replica_path(replica_world, site, write):
    """The op is a replica pull and hot-swap of a primary write."""
    world, syncer, index = replica_world

    def pull(page) -> None:
        getattr(world, write)(page)
        assert syncer.sync_once().changed

    run_case(world, in_process(index), site, pull)


# -- retired segments ----------------------------------------------------------

WORDS = ["patient", "height", "salary", "orbit", "kelp", "ledger"]


def test_merged_away_segments_unmap_with_the_last_view(tmp_path):
    index = SegmentedIndex.open(tmp_path / "segs", create=True)
    for batch in range(5):
        for i in range(8):
            doc_id = batch * 8 + i
            index.add(Document(doc_id, f"doc{doc_id}",
                               terms=[WORDS[doc_id % 6], WORDS[i % 6]],
                               payload=f"payload {doc_id}".encode()))
        index.flush()
    index.remove(3)
    pinned = index.view()
    expected = {word: list(pinned.postings(word).doc_ids_array())
                for word in WORDS}
    maps = [weakref.ref(segment._mmap) for segment in pinned.segments]
    assert len(maps) == 5

    assert index.maybe_merge(MERGE_ALL) == 5
    assert index.segment_count == 1
    # The pinned view still reads the segments the merge retired.
    assert all(ref() is not None for ref in maps)
    assert {word: list(pinned.postings(word).doc_ids_array())
            for word in WORDS} == expected
    assert bytes(pinned.document(17).payload) == b"payload 17"
    assert not pinned.has_document(3)

    del pinned
    gc.collect()
    assert all(ref() is None for ref in maps)
    # The live index reads its merged segment.
    assert index.document(17).title == "doc17"
    assert index.document_count == 39
