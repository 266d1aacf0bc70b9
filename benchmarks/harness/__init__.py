"""One benchmark for Schemr: four named workloads, end-to-end and
per-layer metrics, declared in the repository's ``BENCHMARK.json``.

Entry points (from the repository root)::

    python3 benchmarks/harness/run.py --workload serve_zipf_http --seed 1 --seconds 10 --trace 0
    PYTHONPATH=src python -m benchmarks.harness --seed 1          # all four, both modes
    PYTHONPATH=src python -m benchmarks.harness.check_repeat      # A/A agreement

See ``README.md`` next to this file for the workloads, the metrics and
how they interact.
"""

#: Version of the results-file layout; bump when a metric is renamed,
#: redefined or removed so older results are not compared with newer.
SCHEMA_VERSION = 1
