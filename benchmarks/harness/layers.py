"""Per-layer probes: public calls into each layer, timed from here.

The traced run replays a sample of a workload's own queries through
two engines that share the index but own their caches: one runs the
whole (:meth:`SchemrEngine.search`), the other the parts (parse,
phase-1 search, match-and-score) through the same public functions the
engine composes.  Both see the same queries in the same order, so
whole and parts are always timed in the same cache state and the parts
can be checked to explain the whole.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from pathlib import Path

from repro.core.config import SchemrConfig
from repro.core.engine import SchemrEngine
from repro.index.documents import document_from_schema
from repro.index.segments import (
    SegmentedIndex,
    make_merge_policy,
    open_segment_index,
)
from repro.matching.profile import ProfileStore
from repro.parsers.query_parser import parse_query
from repro.repository.store import SchemaRepository
from repro.resilience.shedding import AdmissionController
from repro.scoring.tightness import TightnessScorer
from repro.service.xmlresponse import parse_results_xml, results_to_xml

from benchmarks.harness.inputs import Batch, Query
from benchmarks.harness.oracle import TOP_N
from benchmarks.harness.tracing import Tracer


def mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def search(engine, query: Query):
    return engine.search(keywords=query.text, fragment=query.fragment,
                         top_n=TOP_N)


class _Replica:
    """An engine with its own profile and query caches over an index."""

    def __init__(self, index, repo: SchemaRepository, capacity: int) -> None:
        self.store = ProfileStore(repo, capacity=capacity)
        self.engine = SchemrEngine(index=index, source=self.store,
                                   config=SchemrConfig())


def decompose(tracer: Tracer, index, repo: SchemaRepository, capacity: int,
              warm: list[Query], sample: list[Query],
              with_untraced: bool = False) -> tuple[dict[str, float], list]:
    """Replay ``sample`` as whole and as parts.

    Returns the layer metrics and the whole engine's result pages.
    ``with_untraced`` adds a third, span-free replay: the median of
    traced over untraced time, query by query, is
    ``workload.trace_overhead_ratio``.
    """
    whole = _Replica(index, repo, capacity)
    parts = _Replica(index, repo, capacity)
    plain = _Replica(index, repo, capacity) if with_untraced else None
    replicas = [r for r in (whole, parts, plain) if r is not None]
    scorer = TightnessScorer(parts.engine.config.penalties)
    side = ProfileStore(repo, capacity=max(1, repo.schema_count))
    pool_size = parts.engine.config.candidate_pool
    for query in warm:
        for replica in replicas:
            search(replica.engine, query)

    cache = whole.engine.searcher.query_cache
    before = (whole.store.hits, whole.store.misses, cache.hits, cache.misses)
    docs_scored: list[float] = []
    candidates = 0
    pages = []
    traced: list[float] = []
    untraced: list[float] = []

    def run_whole(number: int, query: Query) -> None:
        started = time.perf_counter()
        with tracer.span("request", request=number):
            with tracer.span("core.search"):
                pages.append(search(whole.engine, query))
        traced.append(time.perf_counter() - started)

    def run_parts(number: int, query: Query) -> None:
        nonlocal candidates
        searcher = parts.engine.searcher
        with tracer.span("parts", request=number):
            with tracer.span("parsers.parse"):
                graph = parse_query(keywords=query.text,
                                    fragment=query.fragment)
            flattened = graph.flatten()
            with tracer.span("index.search"):
                hits = searcher.search(flattened, top_n=pool_size)
            with tracer.span("matching.match_score"):
                scored = parts.engine.match_and_score(graph, hits)
            scored.sort(key=lambda r: (-r.score, -r.coarse_score, r.name))
        stats = searcher.last_stats
        docs_scored.append(float(stats.docs_scored) if stats else 0.0)
        candidates += len(hits)
        # Timed on their own, outside the sum: prepare is what the
        # sharded front runs in place of search's own analysis, and
        # tightness is already inside match_score.
        with tracer.span("index.prepare", request=number):
            searcher.prepare(flattened)
        # Fetched through a store of its own: going through the parts
        # engine's would reorder its LRU and split the cache states.
        fetched = [(side.get_schema(r.schema_id),
                    side.get_profile(r.schema_id).neighborhood_index())
                   for r in scored]
        with tracer.span("scoring.tightness", request=number):
            for result, (schema, neighborhoods) in zip(scored, fetched):
                scorer.score(schema, result.element_scores,
                             neighborhoods=neighborhoods)

    def run_plain(number: int, query: Query) -> None:
        started = time.perf_counter()
        search(plain.engine, query)
        untraced.append(time.perf_counter() - started)

    steps = [run_whole, run_parts] + ([run_plain] if plain else [])
    for number, query in enumerate(sample):
        # Rotate who goes first: the engines read through one sqlite
        # connection and share the process's memoized text analysis,
        # so whoever repeats a query second finds it cheaper.
        first = number % len(steps)
        for step in steps[first:] + steps[:first]:
            step(number, query)

    took = {name: mean(tracer.durations_ms(name)) for name in (
        "core.search", "parsers.parse", "index.search",
        "matching.match_score", "index.prepare", "scoring.tightness")}
    # Whole minus parts, query by query; the median shrugs off the
    # one-sided spikes a shared host adds to either side.
    whole_ms = {s["request"]: (s["end"] - s["start"]) * 1e3
                for s in tracer.spans if s["name"] == "core.search"}
    parts_ms: dict[int, float] = defaultdict(float)
    for s in tracer.spans:
        if s["name"] in ("parsers.parse", "index.search",
                         "matching.match_score"):
            parts_ms[s["request"]] += (s["end"] - s["start"]) * 1e3
    unattributed = statistics.median(
        [whole_ms[r] - parts_ms[r] for r in whole_ms]) if whole_ms else 0.0
    profile_hits = whole.store.hits - before[0]
    profile_lookups = profile_hits + whole.store.misses - before[1]
    cache_hits = cache.hits - before[2]
    cache_lookups = cache_hits + cache.misses - before[3]
    metrics = {
        "core.search_ms": took["core.search"],
        "core.unattributed_ms": unattributed,
        "parsers.parse_ms": took["parsers.parse"],
        "index.search_ms": took["index.search"],
        "index.prepare_ms": took["index.prepare"],
        "index.docs_scored_per_query": mean(docs_scored),
        "index.query_cache_hit_ratio": ratio(cache_hits, cache_lookups),
        "matching.match_score_ms": took["matching.match_score"],
        "matching.per_candidate_us": ratio(
            took["matching.match_score"] * len(sample) * 1e3, candidates),
        "matching.profile_hit_ratio": ratio(profile_hits, profile_lookups),
        "scoring.tightness_ms": took["scoring.tightness"],
        "workload.trace_overhead_ratio": statistics.median(
            [t / u for t, u in zip(traced, untraced)]) if untraced else 0.0,
    }
    for replica in replicas:
        replica.engine.close()
    return metrics, pages


def cold_fetch(tracer: Tracer, repo: SchemaRepository, ids: list[int]
               ) -> dict[str, float]:
    """Cost of fetching what no cache holds: raw ``get_schema`` on one
    half of ``ids``, a cold ``get_profile`` on the other half."""
    half = len(ids) // 2
    for schema_id in ids[:half]:
        with tracer.span("repository.get_schema"):
            repo.get_schema(schema_id)
    store = ProfileStore(repo, capacity=max(1, half))
    for schema_id in ids[half:]:
        with tracer.span("matching.profile_miss"):
            store.get_profile(schema_id)
    return {
        "repository.get_schema_ms": mean(
            tracer.durations_ms("repository.get_schema")),
        "matching.profile_miss_ms": mean(
            tracer.durations_ms("matching.profile_miss")),
    }


def wire(tracer: Tracer, pages: list, sample: list[Query]
         ) -> dict[str, float]:
    """Server-side serialization and client-side parsing of each page."""
    for results, query in zip(pages, sample):
        with tracer.span("service.serialize"):
            text = results_to_xml(results, query=query.text,
                                  degradation="none", generation=1)
        with tracer.span("service.parse_response"):
            parse_results_xml(text)
    return {
        "service.serialize_ms": mean(
            tracer.durations_ms("service.serialize")),
        "service.parse_response_ms": mean(
            tracer.durations_ms("service.parse_response")),
    }


def admission(rounds: int = 2000) -> dict[str, float]:
    """Uncontended enter+exit of the server's admission gate."""
    config = SchemrConfig()
    controller = AdmissionController(
        max_concurrent=config.max_concurrent_searches,
        queue_size=config.admission_queue_size,
        queue_timeout_seconds=config.admission_timeout_seconds)
    started = time.perf_counter()
    for _ in range(rounds):
        with controller.admitted():
            pass
    return {"resilience.admission_us":
            (time.perf_counter() - started) / rounds * 1e6}


def segment_open(segment_dir: Path) -> dict[str, float]:
    """Cold open of a flat directory, or of every shard of a sharded
    one (what a server pays before it can answer)."""
    started = time.perf_counter()
    open_segment_index(segment_dir)
    return {"segments.open_s": time.perf_counter() - started}


def _files(directory: Path) -> dict[str, int]:
    return {entry.name: entry.stat().st_size
            for entry in directory.iterdir() if entry.is_file()}


def segments(tracer: Tracer, segment_dir: Path, plan: list[Batch]
             ) -> dict[str, float]:
    """Drive flush and the tiered merge policy directly with the
    writer's document batches, counting every byte they create.

    Each call's new files are sized right after it returns, before a
    later merge can sweep them, and every commit rewrites the manifest.
    ``segment_dir`` is consumed: pass a copy.
    """
    index = SegmentedIndex.open(segment_dir)
    directory = index.directory.path
    policy = make_merge_policy("tiered")
    written = 0
    merge_ms: list[float] = []

    def created(before: dict[str, int]) -> int:
        after = _files(directory)
        fresh = sum(size for name, size in after.items()
                    if name not in before)
        return fresh + after.get("MANIFEST.json", 0)

    for batch in plan:
        for schema in batch.adds + batch.updates:
            index.replace(document_from_schema(schema))
        for schema_id in batch.deletes:
            index.remove(schema_id)
        before = _files(directory)
        with tracer.span("segments.flush"):
            index.flush()
        written += created(before)
        # Same bound as the indexer: at most four merges per batch.
        for _ in range(4):
            before = _files(directory)
            with tracer.span("segments.merge") as span:
                merged = index.maybe_merge(policy)
            if not merged:
                break
            merge_ms.append((span["end"] - span["start"]) * 1e3)
            written += created(before)
    ops = sum(batch.ops for batch in plan)
    return {
        "segments.flush_ms": mean(tracer.durations_ms("segments.flush")),
        "segments.merge_ms": mean(merge_ms),
        "segments.merges": float(len(merge_ms)),
        "segments.bytes_written": float(written),
        "segments.final_segment_count": float(index.segment_count),
        "workload.bytes_written_per_op": ratio(written, ops),
    }
