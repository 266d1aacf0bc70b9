"""Golden-equivalence suite for the phase-1 acceleration layer.

The packed and pruned searcher strategies and the generation-aware
query cache are *optimizations*: rankings, scores, and matched-term
counts must be byte-identical to the naive exhaustive reference loop —
exact float equality, not approx — across coordination on/off, fuzzy
expansion, paging offsets, and mid-sequence index mutations.
"""

from __future__ import annotations

import random

from repro.core.config import SchemrConfig
from repro.core.engine import DictSchemaSource, SchemrEngine
from repro.index.cache import QueryCache
from repro.index.documents import Document, document_from_schema
from repro.index.fuzzy import TrigramIndex
from repro.index.inverted import InvertedIndex
from repro.index.searcher import IndexSearcher
from repro.index.segments import SegmentedIndex, TieredMergePolicy
from repro.text.analysis import SCHEMA_ANALYZER

from tests.conftest import (
    build_clinic_schema,
    build_conservation_schema,
    build_hr_schema,
)

#: Sampling pools with sharply different document frequencies, so the
#: pruned searcher actually exercises its and-mode on the common terms.
COMMON = ["patient", "record", "status", "code", "value", "height"]
MEDIUM = ["gender", "diagnosis", "salary", "species", "orbit", "ledger"]
RARE = ["zygote", "quasar", "fjord", "kelp", "ombudsman", "yurt"]

QUERIES = [
    ["patient"],
    ["quasar"],
    ["patient", "height", "gender", "diagnosis"],
    ["zygote", "patient"],
    ["record", "status", "value", "code", "patient", "height"],
    ["fjord", "kelp", "yurt", "ombudsman"],
    ["patient", "zzznonsense"],
    ["salary", "ledger", "orbit"],
]


def synthetic_index(seed: int = 11, count: int = 250,
                    id_of=lambda i: i) -> InvertedIndex:
    rng = random.Random(seed)
    pool = COMMON * 8 + MEDIUM * 3 + RARE
    index = InvertedIndex()
    for i in range(count):
        words = [rng.choice(pool) for _ in range(rng.randint(3, 24))]
        terms = SCHEMA_ANALYZER.analyze_all(words)
        if not terms:
            terms = ["patient"]
        index.add(Document(doc_id=id_of(i), title=f"doc{i}", terms=terms))
    return index


def searcher_trio(index: InvertedIndex, use_coordination: bool = True,
                  fuzzy_factory=lambda index: None) -> list[IndexSearcher]:
    return [
        IndexSearcher(index, use_coordination=use_coordination,
                      fuzzy=fuzzy_factory(index), strategy=strategy)
        for strategy in ("naive", "packed", "pruned")
    ]


def assert_identical(index: InvertedIndex, queries=QUERIES,
                     top_ns=(1, 3, 10, 50, 1000), use_coordination=True,
                     fuzzy_factory=lambda index: None) -> None:
    naive, packed, pruned = searcher_trio(index, use_coordination,
                                          fuzzy_factory)
    for query in queries:
        for top_n in top_ns:
            expected = naive.search(query, top_n=top_n)
            assert packed.search(query, top_n=top_n) == expected
            assert pruned.search(query, top_n=top_n) == expected


class TestStrategyEquivalence:
    def test_synthetic_corpus_all_strategies(self):
        assert_identical(synthetic_index())

    def test_multiple_seeds(self):
        for seed in (3, 29, 101):
            assert_identical(synthetic_index(seed=seed, count=120),
                             top_ns=(1, 7, 40))

    def test_coordination_off(self):
        assert_identical(synthetic_index(), use_coordination=False)

    def test_fuzzy_expansion(self):
        fuzzy = lambda index: TrigramIndex.from_terms(index.vocabulary())
        queries = [
            ["pateint", "height"],        # transposition
            ["quasr"],                    # deletion
            ["zygote", "diagnossis"],
            ["patient", "gender"],        # no expansion needed
        ]
        assert_identical(synthetic_index(), queries=queries,
                         fuzzy_factory=fuzzy)

    def test_sparse_doc_ids_fall_back_exactly(self):
        """A sparse doc-id space routes pruned onto the packed path;
        results still match the naive reference."""
        index = synthetic_index(count=60, id_of=lambda i: i * 50_000 + 17)
        assert_identical(index, top_ns=(1, 5, 30))

    def test_single_document_corpus(self):
        index = InvertedIndex()
        index.add(Document(0, "only", terms=["patient", "height"]))
        assert_identical(index, top_ns=(1, 5))

    def test_mid_sequence_mutations(self):
        """add/remove/replace between queries must keep all strategies
        identical (packed columns, max-impact stats, and snapshots all
        update through the mutation path)."""
        rng = random.Random(7)
        index = synthetic_index(seed=5, count=150)
        assert_identical(index, top_ns=(1, 10))
        # Remove a third of the documents.
        for doc_id in rng.sample(range(150), 50):
            index.remove(doc_id)
        assert_identical(index, top_ns=(1, 10))
        # Replace some survivors with fresh term streams.
        survivors = [d.doc_id for d in index.documents()]
        pool = COMMON + MEDIUM + RARE
        for doc_id in rng.sample(survivors, 30):
            words = [rng.choice(pool) for _ in range(rng.randint(2, 12))]
            index.replace(Document(doc_id, f"re{doc_id}",
                                   terms=SCHEMA_ANALYZER.analyze_all(words)))
        assert_identical(index, top_ns=(1, 10))
        # Add brand-new documents on top.
        for i in range(200, 240):
            words = [rng.choice(pool) for _ in range(rng.randint(2, 12))]
            index.add(Document(i, f"new{i}",
                               terms=SCHEMA_ANALYZER.analyze_all(words)))
        assert_identical(index, top_ns=(1, 10, 500))


def segmented_clone(index: InvertedIndex, tmp_path,
                    flush_every: int = 64) -> SegmentedIndex:
    """An on-disk, multi-segment copy of ``index`` (same documents)."""
    clone = SegmentedIndex.open(tmp_path / "segments", create=True)
    for i, document in enumerate(sorted(index.documents(),
                                        key=lambda d: d.doc_id)):
        clone.add(document)
        if (i + 1) % flush_every == 0:
            clone.flush()
    clone.flush()
    return clone


def assert_backends_identical(memory: InvertedIndex,
                              segmented: SegmentedIndex,
                              queries=QUERIES, top_ns=(1, 10, 50),
                              fuzzy_factory=lambda index: None) -> None:
    """Rankings and scores from the mmapped backend must be
    byte-identical to the in-memory one for every strategy."""
    for strategy in ("naive", "packed", "pruned"):
        mem = IndexSearcher(memory, strategy=strategy,
                            fuzzy=fuzzy_factory(memory))
        seg = IndexSearcher(segmented, strategy=strategy,
                            fuzzy=fuzzy_factory(segmented))
        for query in queries:
            for top_n in top_ns:
                assert seg.search(query, top_n=top_n) == \
                    mem.search(query, top_n=top_n), (strategy, query, top_n)


class TestSegmentedEquivalence:
    """Golden-equivalence of the mmapped segment backend.

    The segmented index is an *optimization of storage*, not of
    ranking: document frequencies, norms, term frequencies and
    document counts must survive serialization exactly, so every
    score comes out byte-identical — across the delta segment,
    tombstones, flush swaps, and merges.
    """

    def test_segments_match_memory(self, tmp_path):
        index = synthetic_index()
        assert_backends_identical(index, segmented_clone(index, tmp_path))

    def test_multiple_seeds_and_sparse_ids(self, tmp_path):
        for seed, id_of in ((3, lambda i: i),
                            (29, lambda i: i * 50_000 + 17)):
            index = synthetic_index(seed=seed, count=120, id_of=id_of)
            clone = segmented_clone(index, tmp_path / str(seed))
            assert_backends_identical(index, clone, top_ns=(1, 7, 40))

    def test_mid_sequence_mutations_against_delta(self, tmp_path):
        """Mutations land in the delta; rankings must track the
        in-memory reference through every intermediate state."""
        rng = random.Random(13)
        memory = synthetic_index(seed=5, count=150)
        segmented = segmented_clone(memory, tmp_path)
        assert_backends_identical(memory, segmented)
        # Deletes tombstone mmapped documents.
        for doc_id in rng.sample(range(150), 40):
            memory.remove(doc_id)
            segmented.remove(doc_id)
        assert_backends_identical(memory, segmented)
        # Replacements shadow segment copies with delta copies.
        survivors = [d.doc_id for d in memory.documents()]
        pool = COMMON + MEDIUM + RARE
        for doc_id in rng.sample(survivors, 25):
            words = [rng.choice(pool) for _ in range(rng.randint(2, 12))]
            doc = Document(doc_id, f"re{doc_id}",
                           terms=SCHEMA_ANALYZER.analyze_all(words))
            memory.replace(doc)
            segmented.replace(doc)
        assert_backends_identical(memory, segmented)
        # Fresh adds live purely in the delta.
        for i in range(500, 540):
            words = [rng.choice(pool) for _ in range(rng.randint(2, 12))]
            doc = Document(i, f"new{i}",
                           terms=SCHEMA_ANALYZER.analyze_all(words))
            memory.add(doc)
            segmented.add(doc)
        assert_backends_identical(memory, segmented, top_ns=(1, 10, 500))

    def test_post_flush_and_post_merge(self, tmp_path):
        """Flush and merge are no-op swaps: same rankings, same
        generation, before and after."""
        rng = random.Random(17)
        memory = synthetic_index(seed=7, count=200)
        segmented = segmented_clone(memory, tmp_path, flush_every=32)
        for doc_id in rng.sample(range(200), 30):
            memory.remove(doc_id)
            segmented.remove(doc_id)
        generation = segmented.generation
        segmented.flush()
        assert segmented.generation == generation
        assert_backends_identical(memory, segmented)
        merged = segmented.maybe_merge(
            TieredMergePolicy(max_per_tier=1, floor_docs=64))
        assert merged > 1
        assert segmented.generation == generation
        assert segmented.deleted_count == 0
        assert_backends_identical(memory, segmented)

    def test_fuzzy_expansion_over_segments(self, tmp_path):
        """Trigram vocabularies built from each backend see the same
        live terms, so fuzzy-expanded rankings agree too."""
        index = synthetic_index(count=120)
        segmented = segmented_clone(index, tmp_path)
        fuzzy = lambda idx: TrigramIndex.from_terms(idx.vocabulary())
        queries = [["pateint", "height"], ["quasr"], ["diagnossis"]]
        assert_backends_identical(index, segmented, queries=queries,
                                  fuzzy_factory=fuzzy)

    def test_snapshot_matches_memory(self, tmp_path):
        index = synthetic_index(count=90)
        segmented = segmented_clone(index, tmp_path)
        segmented.remove(3)
        index.remove(3)
        mem_snap = index.snapshot()
        seg_snap = segmented.snapshot()
        assert seg_snap.norms == mem_snap.norms
        assert seg_snap.document_count == mem_snap.document_count
        assert seg_snap.max_norm == mem_snap.max_norm
        assert seg_snap.max_doc_id == mem_snap.max_doc_id


class TestNoOpSwapKeepsCacheWarm:
    """Segment swaps that preserve rankings must not nuke the warm
    query cache: eviction is keyed strictly to the generation, and
    flush/merge leave the generation alone."""

    def test_flush_preserves_cache_hits(self, tmp_path):
        index = synthetic_index(count=150)
        segmented = segmented_clone(index, tmp_path)
        cache = QueryCache(16)
        searcher = IndexSearcher(segmented, query_cache=cache)
        first = searcher.search(["patient", "height"], top_n=10)
        assert cache.misses == 1
        # Mutate (delta) then flush: the mutation bumps the
        # generation, the flush swap does not.
        segmented.add(Document(9000, "x", terms=["quasar"]))
        generation = segmented.generation
        segmented.flush()
        assert segmented.generation == generation
        searcher.search(["patient", "height"], top_n=10)  # repopulate
        assert cache.misses == 2
        again = searcher.search(["patient", "height"], top_n=10)
        assert cache.hits == 1
        assert again == searcher.search(["patient", "height"], top_n=10)
        segmented.flush()  # truly empty no-op swap
        assert searcher.search(["patient", "height"], top_n=10) == again
        assert cache.misses == 2  # still warm: no re-retrieval

    def test_merge_preserves_cache_and_evict_stale_is_noop(self, tmp_path):
        index = synthetic_index(count=200)
        segmented = segmented_clone(index, tmp_path, flush_every=32)
        cache = QueryCache(16)
        searcher = IndexSearcher(segmented, query_cache=cache)
        expected = searcher.search(["patient"], top_n=10)
        searcher.search(["quasar"], top_n=10)
        assert len(cache) == 2
        merged = segmented.maybe_merge(
            TieredMergePolicy(max_per_tier=1, floor_docs=64))
        assert merged > 1
        # The swap kept the generation, so a stale sweep removes
        # nothing and the warm entries still hit.
        assert cache.evict_stale(segmented.generation) == 0
        assert len(cache) == 2
        assert searcher.search(["patient"], top_n=10) == expected
        assert cache.hits == 1

    def test_mutation_still_invalidates_after_swap(self, tmp_path):
        index = synthetic_index(count=100)
        segmented = segmented_clone(index, tmp_path)
        cache = QueryCache(16)
        searcher = IndexSearcher(segmented, query_cache=cache)
        searcher.search(["patient"], top_n=10)
        segmented.add(Document(9100, "fresh", terms=["patient"]))
        segmented.flush()
        after = searcher.search(["patient"], top_n=10)
        assert any(hit.doc_id == 9100 for hit in after)
        assert cache.misses == 2  # generation moved: real invalidation


class TestGenerationAndSnapshot:
    def test_generation_bumps_on_every_mutation(self):
        index = InvertedIndex()
        g0 = index.generation
        index.add(Document(1, "a", terms=["patient"]))
        g1 = index.generation
        assert g1 > g0
        index.replace(Document(1, "a", terms=["height"]))
        g2 = index.generation
        assert g2 > g1
        index.remove(1)
        g3 = index.generation
        assert g3 > g2
        index.clear()
        assert index.generation > g3

    def test_snapshot_cached_per_generation(self):
        index = InvertedIndex()
        index.add(Document(1, "a", terms=["patient", "height"]))
        snap = index.snapshot()
        assert index.snapshot() is snap
        index.add(Document(2, "b", terms=["gender"]))
        fresh = index.snapshot()
        assert fresh is not snap
        assert fresh.document_count == 2
        assert fresh.max_doc_id == 2
        assert fresh.norms[1] == index.norm(1)
        # The old snapshot is immutable history.
        assert 2 not in snap.norms

    def test_snapshot_max_norm(self):
        index = InvertedIndex()
        index.add(Document(1, "long", terms=["a"] * 16))
        index.add(Document(2, "short", terms=["a"]))
        assert index.snapshot().max_norm == index.norm(2)


class TestQueryCacheIntegration:
    def test_cached_results_identical_and_hit(self):
        index = synthetic_index()
        naive = IndexSearcher(index, strategy="naive")
        cached = IndexSearcher(index, strategy="pruned",
                               query_cache=QueryCache(16))
        query = ["patient", "height", "gender"]
        first = cached.search(query, top_n=10)
        assert first == naive.search(query, top_n=10)
        assert cached.query_cache.misses == 1
        second = cached.search(query, top_n=10)
        assert second == first
        assert cached.query_cache.hits == 1

    def test_mutation_invalidates_through_generation(self):
        index = synthetic_index(count=80)
        cached = IndexSearcher(index, query_cache=QueryCache(16))
        naive = IndexSearcher(index, strategy="naive")
        query = ["patient", "zygote"]
        cached.search(query, top_n=10)
        index.add(Document(5000, "fresh",
                           terms=SCHEMA_ANALYZER.analyze_all(
                               ["zygote", "zygote", "patient"])))
        after = cached.search(query, top_n=10)
        assert after == naive.search(query, top_n=10)
        assert any(hit.doc_id == 5000 for hit in after)

    def test_stale_entries_evicted_on_generation_change(self):
        index = synthetic_index(count=40)
        cache = QueryCache(16)
        searcher = IndexSearcher(index, query_cache=cache)
        searcher.search(["patient"], top_n=5)
        searcher.search(["quasar"], top_n=5)
        assert len(cache) == 2
        index.add(Document(9000, "x", terms=["patient"]))
        searcher.search(["patient"], top_n=5)
        # Both old-generation entries were swept; one fresh entry lives.
        assert len(cache) == 1


def _engine_pair(schemas, config_kwargs=None):
    """Two engines over one corpus: query cache enabled vs disabled."""
    index = InvertedIndex()
    by_id = {}
    for i, schema in enumerate(schemas, start=1):
        schema.schema_id = i
        by_id[i] = schema
        index.add(document_from_schema(schema))
    source = DictSchemaSource(by_id)
    kwargs = dict(config_kwargs or {})
    with_cache = SchemrEngine(
        index=index, source=source,
        config=SchemrConfig(query_cache_size=32, **kwargs))
    without = SchemrEngine(
        index=index, source=source,
        config=SchemrConfig(query_cache_size=0, **kwargs))
    return with_cache, without


class TestEngineEquivalence:
    def test_paging_offsets_equal_with_and_without_cache(self):
        schemas = [build_clinic_schema(), build_hr_schema(),
                   build_conservation_schema(),
                   build_clinic_schema("clinic_two"),
                   build_hr_schema("hr_two")]
        with_cache, without = _engine_pair(schemas)
        for offset in (0, 1, 2, 4, 10):
            expected = without.search("patient, height, gender, diagnosis",
                                      top_n=2, offset=offset)
            got = with_cache.search("patient, height, gender, diagnosis",
                                    top_n=2, offset=offset)
            assert got == expected
        # Paged queries share one phase-1 ranking: only the first run
        # missed, every other offset was a cache hit.
        cache = with_cache.searcher.query_cache
        assert cache.misses == 1
        assert cache.hits == 4

    def test_fuzzy_vocabulary_refreshes_on_generation_change(self):
        """New schemas' terms must become visible to fuzzy expansion
        after an index mutation (the stale-TrigramIndex fix)."""
        schemas = [build_clinic_schema(), build_hr_schema()]
        engine, _ = _engine_pair(
            schemas, {"use_fuzzy_expansion": True})
        index = engine.searcher.index
        # Misspelling of a term nobody has indexed yet: no candidates.
        assert engine.search("kaleidoskope") == []
        late = build_conservation_schema("kaleidoscope_catalog")
        late.schema_id = 77
        engine._executor._source._schemas[77] = late  # extend the dict source
        index.add(document_from_schema(late))
        hits = engine.search("kaleidoskope", top_n=5)
        assert any(r.schema_id == 77 for r in hits)
