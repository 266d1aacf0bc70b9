"""Telemetry overhead bench: disabled vs enabled pipeline cost.

The subsystem's contract is "near-zero cost when disabled, a few
percent when enabled".  Two measurements check it:

* **Pipeline comparison** — the same repository, query set, and warmed
  caches driven through two engines that differ only in
  ``telemetry_enabled``.  Per-query latencies are collected across
  interleaved rounds; the reported overhead is the p50 delta.  The
  finished-page result cache is cleared before each measured search,
  so both modes time the full pipeline, not a cache hit.
* **No-op microbench** — the disabled path costs one attribute lookup
  and one empty call per instrument site per query (never per posting).
  Timing a bundle of null-instrument calls directly and scaling it by
  the sites a search traverses bounds the disabled overhead without
  needing a second checkout to diff against: the bound is the measured
  per-query no-op cost over the measured disabled p50.

Results go to ``BENCH_telemetry.json`` at the repository root; the CI
smoke job gates on ``disabled_noop_overhead_pct`` (< 2) and
``enabled_overhead_pct`` (a loose cap, since shared runners jitter).

Run (from the repository root)::

    PYTHONPATH=src:. python benchmarks/bench_telemetry_overhead.py             # full
    PYTHONPATH=src:. python benchmarks/bench_telemetry_overhead.py --count 600 # CI smoke
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
import time
from pathlib import Path

from repro.core.config import SchemrConfig
from repro.core.engine import SchemrEngine
from repro.telemetry.metrics import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
)

from benchmarks.helpers import PAPER_KEYWORDS, corpus_repository, sampler_for

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = ROOT / "BENCH_telemetry.json"

#: Instrument touches a single search makes on the disabled path: the
#: resolved counter/histogram updates in ``_finish_search`` and the lazy
#: registry resolutions.  Generously rounded up.
NOOP_SITES_PER_QUERY = 32


def build_engines(count: int) -> tuple[dict[str, SchemrEngine], tuple]:
    repo, corpus = corpus_repository(count)
    engines = {
        "disabled": repo.engine(config=SchemrConfig()),
        "enabled": repo.engine(
            config=SchemrConfig(telemetry_enabled=True)),
    }
    return engines, corpus


def build_queries(corpus: tuple, sampled: int) -> list[list[str]]:
    queries = [re.split(r"[,\s]+", PAPER_KEYWORDS.strip())]
    sampler = sampler_for(corpus)
    for query in sampler.sample(sampled, channel="clean"):
        queries.append(list(query.keywords))
    return queries


def measure_mode(engine: SchemrEngine, queries: list[list[str]],
                 top_n: int) -> list[float]:
    """One round: per-query wall seconds.

    The finished-page cache is emptied (untimed) before each search, so
    every measured search runs the pipeline rather than a cache hit.
    """
    times = []
    for query in queries:
        engine.result_cache.clear()
        start = time.perf_counter()
        engine.search(keywords=query, top_n=top_n)
        times.append(time.perf_counter() - start)
    return times


def noop_bundle_seconds(iterations: int) -> float:
    """Wall seconds for ``iterations`` bundles of 8 null-instrument
    touches (so one bundle ~= a quarter of NOOP_SITES_PER_QUERY)."""
    counter, gauge, histogram = NULL_COUNTER, NULL_GAUGE, NULL_HISTOGRAM
    start = time.perf_counter()
    for _ in range(iterations):
        counter.inc()
        counter.inc(3)
        counter.inc()
        counter.inc(2)
        counter.inc()
        gauge.set(1.0)
        histogram.observe(0.5)
        histogram.observe(0.1)
    return time.perf_counter() - start


def run(count: int, sampled_queries: int, repeats: int, top_n: int,
        out_path: Path) -> dict:
    engines, corpus = build_engines(count)
    queries = build_queries(corpus, sampled_queries)

    # Warm both engines identically (query cache, profile cache, JIT-ish
    # dict warmup) so measured rounds compare steady states.
    for engine in engines.values():
        for query in queries:
            engine.search(keywords=query, top_n=top_n)

    per_query: dict[str, list[float]] = {name: [] for name in engines}
    for _ in range(repeats):
        for name, engine in engines.items():
            per_query[name].extend(measure_mode(engine, queries, top_n))

    modes = {
        name: {
            "p50_ms": statistics.median(times) * 1000.0,
            "p95_ms": statistics.quantiles(times, n=20)[-1] * 1000.0,
            "mean_ms": statistics.fmean(times) * 1000.0,
            "total_seconds": sum(times),
        }
        for name, times in per_query.items()
    }

    disabled_p50 = statistics.median(per_query["disabled"])
    enabled_p50 = statistics.median(per_query["enabled"])
    enabled_overhead_pct = ((enabled_p50 - disabled_p50) / disabled_p50
                            * 100.0 if disabled_p50 else 0.0)

    # Disabled-path bound: measured no-op cost per query over the
    # measured disabled p50.
    iterations = 200_000
    bundle_s = noop_bundle_seconds(iterations)
    per_site_s = bundle_s / (iterations * 8)
    noop_per_query_s = per_site_s * NOOP_SITES_PER_QUERY
    disabled_noop_pct = (noop_per_query_s / disabled_p50 * 100.0
                         if disabled_p50 else 0.0)

    # Sanity: the enabled engine actually recorded the traffic.
    telemetry = engines["enabled"].telemetry
    searches = telemetry.metrics.snapshot().value("schemr_searches_total")
    expected = len(queries) * (repeats + 1)  # + warmup round

    result = {
        "corpus_size": engines["disabled"].searcher.index.document_count,
        "queries": len(queries),
        "repeats": repeats,
        "top_n": top_n,
        "modes": modes,
        "enabled_overhead_pct": enabled_overhead_pct,
        "noop_site_nanoseconds": per_site_s * 1e9,
        "noop_sites_per_query": NOOP_SITES_PER_QUERY,
        "disabled_noop_overhead_pct": disabled_noop_pct,
        "enabled_searches_recorded": searches,
        "enabled_searches_expected": expected,
    }
    for engine in engines.values():
        engine.close()
    out_path.write_text(json.dumps(result, indent=2) + "\n",
                        encoding="utf-8")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--count", type=int, default=6000,
                        help="raw corpus size fed to the paper filter "
                             "(default 6000; use 600 for a CI smoke)")
    parser.add_argument("--queries", type=int, default=25,
                        help="sampled ground-truth queries on top of the "
                             "paper query (default 25)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="measurement rounds per mode (default 5)")
    parser.add_argument("--top-n", type=int, default=10,
                        help="results per query (default 10)")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help=f"output JSON path (default {DEFAULT_OUT})")
    args = parser.parse_args(argv)

    result = run(args.count, args.queries, args.repeats, args.top_n,
                 args.out)
    disabled = result["modes"]["disabled"]
    enabled = result["modes"]["enabled"]
    print(f"corpus: {result['corpus_size']} docs, "
          f"{result['queries']} queries x {result['repeats']} rounds")
    print(f"disabled: p50 {disabled['p50_ms']:.3f} ms  "
          f"p95 {disabled['p95_ms']:.3f} ms")
    print(f"enabled:  p50 {enabled['p50_ms']:.3f} ms  "
          f"p95 {enabled['p95_ms']:.3f} ms")
    print(f"enabled overhead (p50): "
          f"{result['enabled_overhead_pct']:+.2f}%")
    print(f"no-op site cost: {result['noop_site_nanoseconds']:.0f} ns; "
          f"disabled-path bound: "
          f"{result['disabled_noop_overhead_pct']:.4f}%")
    print(f"searches recorded: {result['enabled_searches_recorded']:.0f}"
          f" / {result['enabled_searches_expected']}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
