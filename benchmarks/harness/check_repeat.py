"""A/A check: two full sets of runs of the same code must agree.

For every workload, two sets of ``--seeds`` untraced runs (one seed
each, the same seeds in both sets) are made through the driver's own
command line.  Per end-to-end metric the check prints both medians,
how much worse the second is than the first, and each set's spread
(interquartile range over median), next to the bound recorded in
``BENCHMARK.json``.  It exits nonzero when a spread (``setup_s``
excepted, as in the driver) or a median shift exceeds its bound, or
when any run failed its oracle.  Its output is what fixes the bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from benchmarks.harness import fixture as fx
from benchmarks.harness.metrics import END_TO_END, RUN_SECONDS, WORKLOADS
from benchmarks.harness.stats import spread

RUN = Path(__file__).resolve().parent / "run.py"


def one_run(workload: str, seed: int, extra: list[str]) -> dict:
    """One untraced run in a fresh process; returns its results file."""
    command = [sys.executable, str(RUN), "--workload", workload,
               "--seed", str(seed), "--trace", "0", *extra]
    done = subprocess.run(command, capture_output=True, text=True,
                          cwd=str(fx.REPO_ROOT), check=False)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited "
                         f"{done.returncode}:\n{done.stdout}{done.stderr}")
    path = fx.OUT_DIR / f"results-{workload}-seed{seed}-trace0.json"
    return json.loads(path.read_text(encoding="utf-8"))


def worse_by(metric, first: float, second: float) -> float:
    """How much worse ``second`` is than ``first``, as a share."""
    if not first:
        return 0.0
    change = (second - first) / first
    return change if metric.better == "lower" else -change


def compare(workload: str, sets: list[list[dict]]) -> tuple[list[str], bool]:
    """Report lines and verdict for one workload's two sets."""
    reference = sets[0][0]["stamp"]
    for result in sets[0] + sets[1]:
        reason = fx.comparable(reference, result["stamp"])
        if reason is not None:
            raise SystemExit(f"refusing to compare {workload} runs: "
                             f"{reason}")
    lines = []
    agree = True
    for metric in END_TO_END:
        values = [[r["metrics"][metric.name]["value"] for r in runs]
                  for runs in sets]
        medians = [statistics.median(v) for v in values]
        spreads = [spread(v) for v in values]
        shift = worse_by(metric, medians[0], medians[1])
        ok = shift <= metric.bound and (
            metric.name == "setup_s"
            or max(spreads) <= metric.bound)
        agree = agree and ok
        lines.append(
            f"  {metric.name:<16} median {medians[0]:>10.4f} -> "
            f"{medians[1]:>10.4f} {metric.unit:<4} worse by "
            f"{shift:>+7.3f}  spread {spreads[0]:.3f} / {spreads[1]:.3f}"
            f"  bound {metric.bound:.2f}  {'ok' if ok else 'DISAGREE'}")
    failed = sum(r["failed"] for runs in sets for r in runs)
    if failed:
        agree = False
        lines.append(f"  {failed} operation(s) failed across the runs")
    return lines, agree


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10,
                        help="runs per set, seeds 1..N (default 10)")
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS),
                        help="limit to this workload (repeatable)")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--smoke", action="store_true",
                        help="pass --smoke to every run (plumbing check)")
    args = parser.parse_args(argv)
    extra = ["--seconds", str(args.seconds)]
    if args.smoke:
        extra.append("--smoke")
    if args.seeds < 2:
        parser.error("--seeds must be at least 2 (a spread needs two runs)")

    agree = True
    report: dict[str, list] = {}
    for workload in args.workload or list(WORKLOADS):
        sets = [[one_run(workload, seed, extra)
                 for seed in range(1, args.seeds + 1)]
                for _ in range(2)]
        lines, ok = compare(workload, sets)
        agree = agree and ok
        report[workload] = sets
        print(f"{workload}: {'agree' if ok else 'DISAGREE'}")
        print("\n".join(lines), flush=True)
    (fx.OUT_DIR / "check_repeat.json").write_text(
        json.dumps(report) + "\n", encoding="utf-8")
    print("two sets agree within the bounds" if agree
          else "two sets disagree: lengthen the run, widen the bound up "
               "to the contract's cap, or demote the metric")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
