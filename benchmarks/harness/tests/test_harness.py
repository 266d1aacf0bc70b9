"""Tests of the benchmark harness itself.

Run explicitly (they are not part of tier 1)::

    PYTHONPATH=src python -m pytest benchmarks/harness/tests

The smoke tests drive every workload in both modes through the
driver's command line on a 500-schema corpus (about a minute in all).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.workload import regenerate_corpus

from benchmarks.harness import inputs
from benchmarks.harness.fixture import REPO_ROOT, comparable, stamp
from benchmarks.harness.loadgen import open_loop
from benchmarks.harness.metrics import (
    END_TO_END,
    PER_LAYER,
    WORKLOADS,
    benchmark_json,
)
from benchmarks.harness.stats import (
    fast_quartile,
    spread,
    summarize,
    tail_percentile,
)
from benchmarks.harness.tracing import Tracer

RUN = Path(__file__).resolve().parents[1] / "run.py"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- declarations ----------------------------------------------------------

def test_metric_and_workload_names_fit_the_contract():
    names = [m.name for m in END_TO_END + PER_LAYER] + list(WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in END_TO_END + PER_LAYER:
        assert UNIT.match(metric.unit), metric
        assert metric.better in ("lower", "higher"), metric
    for why in WORKLOADS.values():
        assert len(why) <= 200 and "\n" not in why


def test_bounds_and_setup_metric():
    by_name = {m.name: m for m in END_TO_END}
    assert by_name["setup_s"].unit == "s"
    assert by_name["setup_s"].better == "lower"
    for metric in END_TO_END:
        assert 0 < metric.bound <= 0.25
        assert metric.bound <= by_name["setup_s"].bound


def test_every_layer_metric_says_what_it_should_move():
    for metric in PER_LAYER:
        assert metric.moves and metric.measured_by, metric.name
        assert set(metric.on) <= set(WORKLOADS) and metric.on, metric.name


def test_benchmark_json_is_generated_from_the_declarations():
    on_disk = json.loads(
        (REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert on_disk == benchmark_json()
    assert set(on_disk) == {"command", "paths", "run_seconds", "workloads",
                            "end_to_end", "per_layer"}
    assert on_disk["paths"] == ["benchmarks/harness"]
    assert 2 <= len(on_disk["workloads"]) <= 8
    for entry in on_disk["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
    for entry in on_disk["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}


# -- statistics ------------------------------------------------------------

@pytest.mark.parametrize("count, expected", [
    (10, None), (39, None), (40, 75.0), (99, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)])
def test_tail_percentile_needs_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_summarize_reports_median_tail_and_count():
    summary = summarize([float(v) for v in range(1, 201)])
    assert summary == {"p50": 100.5, "tail_pct": 95.0, "tail": 190.0,
                       "n": 200}
    # 10 samples lie beyond the reported tail, as the rule demands.
    assert sum(1 for v in range(1, 201) if v > summary["tail"]) == 10
    assert summarize([1.0, 2.0, 3.0])["tail"] == 0.0


def test_spread_is_iqr_over_median():
    assert spread([10.0] * 10) == 0.0
    assert spread([float(v) for v in range(1, 12)]) == pytest.approx(1.0)


def test_fast_quartile_reports_the_unslowed_part_of_the_window():
    """Six slices at 50 req/s and 20 ms, four slowed to 25 req/s and
    40 ms by the host: the result is the fast mode, not the mix."""
    completions = []
    for second in range(10):
        rate, latency = (50, 20.0) if second in (0, 1, 4, 5, 8, 9) \
            else (25, 40.0)
        completions += [(second + (i + 0.5) / rate, latency)
                        for i in range(rate)]
    throughput, latency = fast_quartile(completions, 10.0)
    assert (throughput, latency) == (50.0, 20.0)
    # A 2 s smoke window has too few slices: plain count / wall, median.
    throughput, latency = fast_quartile(completions[:100], 2.0)
    assert throughput == pytest.approx(100 / 1.99, rel=0.01)
    assert latency == 20.0


# -- load generation -------------------------------------------------------

def test_open_loop_latency_counts_from_the_due_time():
    """A stalled request delays the next one; the delay is charged to
    the request that suffered it, and shows as generator lag."""
    def make_call():
        def call(item):
            time.sleep(0.12 if item == "slow" else 0.0)
            return item
        return call

    samples = open_loop(make_call, ["slow", "fast", "fast"], rate=20.0,
                        seconds=10.0)
    by_index = {s.index: s for s in samples}
    assert len(by_index) == 3
    late = by_index[1]
    # Due 50 ms in, sent only after the 120 ms stall ended.
    assert late.lag_ms >= 50.0
    assert late.due_latency_ms >= late.latency_ms + 50.0
    assert late.due_latency_ms == pytest.approx(
        late.lag_ms + late.latency_ms)
    assert by_index[0].lag_ms < 20.0


# -- inputs ----------------------------------------------------------------

@pytest.fixture(scope="module")
def corpus():
    generated = regenerate_corpus(7, 200)
    for number, entry in enumerate(generated, start=1):
        entry.schema.schema_id = number
    return generated


def _all_inputs(corpus, seed):
    catalog = inputs.zipf_catalog(corpus, 7)
    plan = inputs.crud_plan(corpus, seed)
    return (
        inputs.zipf_stream(catalog, seed, 120),
        inputs.keyword_queries(corpus, seed, 80),
        inputs.fragment_queries(corpus, seed, 40),
        [([s.to_dict() for s in b.adds], [s.to_dict() for s in b.updates],
          b.deletes) for b in plan],
    )


def test_same_seed_same_inputs(corpus):
    assert _all_inputs(corpus, 5) == _all_inputs(corpus, 5)
    first, second = _all_inputs(corpus, 5), _all_inputs(corpus, 6)
    for a, b in zip(first, second):
        assert a != b


def test_keyword_and_fragment_queries_never_repeat(corpus):
    keywords = inputs.keyword_queries(corpus, 3, 150)
    assert len({frozenset(q.keywords) for q in keywords}) == len(keywords)
    assert all(2 <= len(q.keywords) <= 5 and q.fragment is None
               for q in keywords)
    fragments = inputs.fragment_queries(corpus, 3, 40)
    assert len(set(fragments)) == len(fragments)
    assert all(q.fragment.startswith("CREATE TABLE") for q in fragments)


def test_crud_plan_never_touches_a_deleted_schema(corpus):
    gone: set[int] = set()
    for batch in inputs.crud_plan(corpus, 9):
        assert (len(batch.adds), len(batch.updates), len(batch.deletes)) \
            == (inputs.BATCH_ADDS, inputs.BATCH_UPDATES,
                inputs.BATCH_DELETES)
        gone.update(batch.deletes)
        assert not gone & {s.schema_id for s in batch.updates}
    assert len(gone) == len(set(gone))


# -- tracing and stamps ----------------------------------------------------

def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("request", request=7):
        with tracer.span("child"):
            time.sleep(0.02)
        time.sleep(0.01)
    parent, child = tracer.spans
    assert child["parent"] == parent["id"] and child["request"] == 7
    own = tracer.self_times_ms()
    assert own["child"][0] >= 20.0
    assert 10.0 <= own["request"][0] < tracer.durations_ms("request")[0]


def test_runs_with_different_hosts_or_corpora_are_not_comparable():
    base = stamp(7, 1200, 1015, 1, 10.0)
    assert comparable(base, stamp(7, 1200, 1015, 2, 10.0)) is None
    assert "corpus" in comparable(base, stamp(7, 7000, 5900, 1, 10.0))
    other_host = dict(base, cpu_count=(base["cpu_count"] or 0) + 1)
    assert "cpu_count" in comparable(base, other_host)


# -- every workload, both modes, through the driver's command line ---------

@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_emits_exactly_the_declared_metrics(workload, trace):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
         "--smoke", "--trace", str(trace)],
        capture_output=True, text=True, cwd=str(REPO_ROOT), timeout=180)
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    declared = PER_LAYER if trace else END_TO_END
    assert set(line["metrics"]) == {m.name for m in declared}
    for metric in declared:
        entry = line["metrics"][metric.name]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == metric.unit
        if not trace:
            assert entry["value"] > 0
        elif workload in metric.on and metric.better == "lower" \
                and metric.unit in ("ms", "s", "us"):
            # A timing this workload must produce is never exactly 0,
            # except the tail and p90 a 2 s smoke run cannot support.
            if metric.name not in ("workload.latency_tail_ms",
                                   "workload.paced_latency_p90_ms",
                                   "workload.lag_p95_ms",
                                   "core.unattributed_ms"):
                assert entry["value"] != 0, metric.name
