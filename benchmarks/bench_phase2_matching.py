"""Phase-2 acceleration bench: cold vs profiled vs profiled+parallel.

Times the schema-matching phase (and the full pipeline) over the
generated corpus in three engine configurations:

* ``cold`` — the from-scratch path: the engine reads schemas straight
  from the repository (per-candidate JSON parse) and every matcher
  re-derives its artifacts per candidate;
* ``profiled`` — the acceleration layer: a warm
  :class:`~repro.matching.profile.ProfileStore` serves cached schemas
  and precomputed :class:`~repro.matching.profile.SchemaMatchProfile`
  artifacts (built at ingest by the indexer refresh);
* ``parallel`` — the profiled path with ``match_workers`` threads
  scoring candidate chunks concurrently.

Per mode, one *round* runs the whole query set and sums the per-query
phase-2 seconds; the reported figure is the median over ``--repeats``
rounds (medians shrug off scheduler noise on small machines).  Results
go to ``BENCH_phase2.json`` at the repository root.

Run (from the repository root)::

    PYTHONPATH=src python benchmarks/bench_phase2_matching.py             # 5k corpus
    PYTHONPATH=src python benchmarks/bench_phase2_matching.py --count 500 # CI smoke
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from repro.core.config import SchemrConfig
from repro.core.engine import SchemrEngine
from repro.core.pipeline import PHASE_MATCHING
from repro.matching.name import _word_similarity
from repro.matching.normalize import analysed_words

from benchmarks.helpers import PAPER_FRAGMENT, PAPER_KEYWORDS, \
    corpus_repository, sampler_for

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = ROOT / "BENCH_phase2.json"


def build_queries(corpus, sampled: int) -> list[dict]:
    """The paper's running query plus sampled ground-truth queries."""
    queries: list[dict] = [
        {"keywords": PAPER_KEYWORDS},
        {"keywords": PAPER_KEYWORDS, "fragment": PAPER_FRAGMENT},
    ]
    sampler = sampler_for(corpus)
    for query in sampler.sample(sampled, channel="clean"):
        queries.append({"keywords": query.keywords})
    return queries


def time_round(engine: SchemrEngine, queries: list[dict]) \
        -> tuple[float, float]:
    """(phase-2 seconds, total seconds) summed over the query set."""
    phase2 = total = 0.0
    for query in queries:
        engine.search(**query)
        profile = engine.last_profile
        assert profile is not None
        phase2 += profile.phase_seconds[PHASE_MATCHING]
        total += profile.total_seconds
    return phase2, total


def clear_process_memos() -> None:
    """Forget the process-wide identifier-analysis and word-similarity
    memos, so the cold arm pays for them as a fresh process would
    instead of reading what the profiled arms left behind."""
    analysed_words.cache_clear()
    _word_similarity.cache_clear()


def measure(engines: dict[str, SchemrEngine], queries: list[dict],
            repeats: int) -> dict[str, dict]:
    """Median per-mode round times, rounds interleaved across modes.

    Interleaving (cold, profiled, parallel, cold, ...) instead of
    running each mode's rounds back to back means clock-frequency and
    scheduler drift hit every mode equally, which matters when the
    margin under test is a few percent.  Each timed cold round starts
    from cleared process-wide memos (:func:`clear_process_memos`).
    """
    rounds: dict[str, dict[str, list[float]]] = {
        name: {"phase2": [], "total": []} for name in engines}
    for engine in engines.values():
        time_round(engine, queries)  # warmup round per mode
    for _ in range(repeats):
        for name, engine in engines.items():
            if name == "cold":
                clear_process_memos()
            phase2, total = time_round(engine, queries)
            rounds[name]["phase2"].append(phase2)
            rounds[name]["total"].append(total)
    return {
        name: {
            "phase2_seconds": statistics.median(data["phase2"]),
            "total_seconds": statistics.median(data["total"]),
            "phase2_rounds": data["phase2"],
        }
        for name, data in rounds.items()
    }


def run(count: int, sampled_queries: int, repeats: int, workers: int,
        pool: int, out_path: Path) -> dict:
    repo, corpus = corpus_repository(count)
    indexer = repo.indexer()
    indexer.refresh()
    index = indexer.index
    profile_store = repo.profile_store()
    queries = build_queries(corpus, sampled_queries)

    parallel = SchemrEngine(
        index=index, source=profile_store,
        config=SchemrConfig(candidate_pool=pool, match_workers=workers))
    engines = {
        "cold": SchemrEngine(index=index, source=repo,
                             config=SchemrConfig(candidate_pool=pool)),
        "profiled": SchemrEngine(index=index, source=profile_store,
                                 config=SchemrConfig(candidate_pool=pool)),
        "parallel": parallel,
    }
    try:
        modes = measure(engines, queries, repeats)
    finally:
        parallel.close()

    cold_p2 = modes["cold"]["phase2_seconds"]
    prof_p2 = modes["profiled"]["phase2_seconds"]
    par_p2 = modes["parallel"]["phase2_seconds"]
    result = {
        "corpus_size": repo.schema_count,
        "queries": len(queries),
        "repeats": repeats,
        "match_workers": workers,
        "candidate_pool": pool,
        "modes": modes,
        "speedup": {
            "profiled_vs_cold": cold_p2 / prof_p2 if prof_p2 else 0.0,
            "parallel_vs_cold": cold_p2 / par_p2 if par_p2 else 0.0,
            "parallel_vs_profiled": prof_p2 / par_p2 if par_p2 else 0.0,
        },
    }
    out_path.write_text(json.dumps(result, indent=2) + "\n",
                        encoding="utf-8")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--count", type=int, default=5000,
                        help="raw corpus size fed to the paper filter "
                             "(default 5000; use 500 for a CI smoke)")
    parser.add_argument("--queries", type=int, default=8,
                        help="sampled ground-truth queries on top of the "
                             "paper query (default 8)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="measurement rounds per mode (default 5)")
    parser.add_argument("--workers", type=int, default=4,
                        help="match_workers for the parallel mode")
    parser.add_argument("--pool", type=int, default=100,
                        help="candidate_pool for every mode (default 100; "
                             "a deeper pool gives phase two enough work "
                             "for stable timings)")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help=f"output JSON path (default {DEFAULT_OUT})")
    args = parser.parse_args(argv)

    result = run(args.count, args.queries, args.repeats, args.workers,
                 args.pool, args.out)
    speedup = result["speedup"]
    print(f"corpus: {result['corpus_size']} schemas, "
          f"{result['queries']} queries x {result['repeats']} rounds")
    for mode, stats in result["modes"].items():
        print(f"  {mode:>9}: phase2 {stats['phase2_seconds']:.4f}s  "
              f"total {stats['total_seconds']:.4f}s")
    print(f"  profiled vs cold:     {speedup['profiled_vs_cold']:.2f}x")
    print(f"  parallel vs cold:     {speedup['parallel_vs_cold']:.2f}x")
    print(f"  parallel vs profiled: {speedup['parallel_vs_profiled']:.2f}x")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
