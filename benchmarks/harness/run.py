"""Command line of the benchmark.

``--workload NAME --seed N --seconds S --trace 0|1`` is one run in the
form the driver calls: the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding every
end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``).  Without ``--workload`` all four run, and without
``--trace`` both modes do; every run also writes a stamped results
file (and, when traced, its spans) under ``out/``.
"""

from __future__ import annotations

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
if not (_ROOT / "src" / "repro").is_dir():
    sys.exit(f"{_ROOT} holds no src/repro: the benchmark measures the "
             "program of its own checkout and cannot run without it")
for _entry in (str(_ROOT / "src"), str(_ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

from benchmarks.harness import fixture as fx  # noqa: E402
from benchmarks.harness.metrics import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    RUN_SECONDS,
    WORKLOADS,
)
from benchmarks.harness.tracing import Tracer  # noqa: E402
from benchmarks.harness.workloads import (  # noqa: E402
    CONNECTIONS,
    SHARDS,
    WORKLOAD_CLASSES,
    Options,
    Outcome,
)

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

SMOKE_CORPUS_COUNT = 500
SMOKE_SECONDS = 2.0


def run_once(name: str, options: Options, trace: bool,
             setup_repeats: int) -> dict:
    """One workload in one mode; returns the stamped result."""
    setups: list[float] = []
    workload = None
    outcome = Outcome()
    problems: list[str] = []
    tracer = Tracer()
    try:
        for _ in range(setup_repeats if not trace else 1):
            if workload is not None:
                problems += workload.teardown()
            workload = WORKLOAD_CLASSES[name](options)
            workdir = fx.new_workdir(name)
            started = time.perf_counter()
            workload.setup(workdir)
            setups.append(time.perf_counter() - started)
        workload.generate()
        outcome = workload.diagnose(tracer) if trace else workload.measure()
        stages = dict(workload.fixture.stages)
        kept = workload.fixture.kept
    finally:
        if workload is not None:
            problems += workload.teardown()
    problems += _stray_children()
    for problem in problems:
        outcome.check(False, problem)

    declared = {m.name: m for m in (PER_LAYER if trace else END_TO_END)}
    if trace:
        missing = [m.name for m in PER_LAYER
                   if name in m.on and m.name not in outcome.metrics]
    else:
        outcome.metrics["setup_s"] = statistics.median(setups)
        outcome.counts["setup_s"] = len(setups)
        missing = [metric for metric in declared
                   if not outcome.metrics.get(metric)]
    values = {metric: outcome.metrics.get(metric, 0.0)
              for metric in declared}
    undeclared = sorted(set(outcome.metrics) - set(declared))
    if missing or undeclared:
        raise SystemExit(f"{name}: missing metrics {missing}, "
                         f"undeclared metrics {undeclared}")

    result = {
        "stamp": fx.stamp(options.corpus_seed, options.corpus_count, kept,
                          options.seed, options.seconds, {
                              "connections": CONNECTIONS, "shards": SHARDS,
                              "setup_repeats": len(setups)}),
        "workload": name,
        "why": WORKLOADS[name],
        "trace": int(trace),
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            metric: {"value": value, "unit": declared[metric].unit,
                     "n": outcome.counts.get(metric)}
            for metric, value in values.items()},
        "setup_stages_s": stages,
        "notes": outcome.notes,
    }
    if trace:
        result["should_move"] = {m.name: m.moves for m in PER_LAYER}
        # Self time: a span's duration minus what its children cover.
        result["span_self_ms"] = {
            span: statistics.fmean(times)
            for span, times in tracer.self_times_ms().items()}
        whole = values["core.search_ms"]
        if abs(values["core.unattributed_ms"]) > 0.10 * whole:
            result["notes"].append(
                "core.unattributed_ms exceeds 10% of core.search_ms: "
                "the parts do not explain the whole in this run")
    fx.OUT_DIR.mkdir(exist_ok=True)
    stem = f"{name}-seed{options.seed}-trace{int(trace)}"
    (fx.OUT_DIR / f"results-{stem}.json").write_text(
        json.dumps(result, indent=2) + "\n", encoding="utf-8")
    if trace:
        tracer.dump(fx.OUT_DIR / f"spans-{stem}.json")
    return result


def _stray_children() -> list[str]:
    """Every process the run started must be gone by now."""
    strays = [f"child process {child.pid} is still alive"
              for child in multiprocessing.active_children()]
    strays += [f"child process {pid} is still alive"
               for pid in fx.children_of(os.getpid()) if fx.alive(pid)]
    return strays


def report(result: dict) -> str:
    lines = [f"== {result['workload']}  trace={result['trace']}  "
             f"seed={result['stamp']['workload_seed']}  "
             f"attempted={result['attempted']} failed={result['failed']}"]
    for name, entry in result["metrics"].items():
        count = f"  n={entry['n']}" if entry["n"] is not None else ""
        lines.append(f"  {name:<36} {entry['value']:>14.4f} "
                     f"{entry['unit']}{count}")
    lines += [f"  note: {note}" for note in result["notes"]]
    return "\n".join(lines)


def contract_line(result: dict) -> str:
    """The driver's last line: exactly four keys, value + unit only."""
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in result["metrics"].items()},
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.harness",
        description="Schemr benchmark: four workloads, end-to-end and "
                    "per-layer metrics")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1,
                        help="drives the generated inputs only")
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured window (default {RUN_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, tracing off; 1: "
                             "per-layer metrics from the traced run "
                             "(default: both)")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_CORPUS_COUNT}-schema corpus, "
                             f"{SMOKE_SECONDS:g} s windows, one set-up: "
                             "same code paths and oracle, numbers "
                             "meaningless")
    parser.add_argument("--corpus-seed", type=int,
                        default=fx.DEFAULT_CORPUS_SEED)
    parser.add_argument("--corpus-count", type=int, default=None,
                        help="raw schemas generated (default "
                             f"{fx.DEFAULT_CORPUS_COUNT}; the issue's "
                             "full size is 7000)")
    args = parser.parse_args(argv)

    seconds = args.seconds or (SMOKE_SECONDS if args.smoke else RUN_SECONDS)
    corpus_count = args.corpus_count or (
        SMOKE_CORPUS_COUNT if args.smoke else fx.DEFAULT_CORPUS_COUNT)
    options = Options(seed=args.seed, seconds=seconds,
                      corpus_seed=args.corpus_seed,
                      corpus_count=corpus_count)
    names = [args.workload] if args.workload else list(WORKLOADS)
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    results = []
    for name in names:
        for trace in modes:
            result = run_once(name, options, trace,
                              1 if args.smoke else SETUP_REPEATS)
            print(report(result), flush=True)
            results.append(result)
    if len(results) == 1:
        print(contract_line(results[0]))
    return 0 if all(result["correct"] for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())
