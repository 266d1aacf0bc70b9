"""Order statistics for latency samples and A/A spreads."""

from __future__ import annotations

import math
import statistics

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

#: A percentile is reported only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def _rank(pct: float, count: int) -> int:
    """Nearest rank of a percentile (rounded first: 99.9% of 10000 is
    9990, not the 9990.000000000002 the floats give)."""
    return max(1, math.ceil(round(pct / 100.0 * count, 6)))


def percentile(ordered: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[_rank(pct, len(ordered)) - 1]


def tail_percentile(count: int) -> float | None:
    """The highest percentile with >= 10 of ``count`` samples beyond it.

    ``None`` when even p75 is not supported (fewer than 40 samples):
    the median is then the only honest summary.
    """
    for pct in TAIL_PERCENTILES:
        if count - _rank(pct, count) >= MIN_SAMPLES_BEYOND:
            return pct
    return None


def summarize(samples: list[float]) -> dict:
    """Median, supported tail and sample count of one timing series.

    ``tail_pct``/``tail`` are 0.0 when the sample is too small to
    support any tail percentile.
    """
    ordered = sorted(samples)
    pct = tail_percentile(len(ordered))
    return {
        "p50": statistics.median(ordered) if ordered else 0.0,
        "tail_pct": pct or 0.0,
        "tail": percentile(ordered, pct) if pct else 0.0,
        "n": len(ordered),
    }


def fast_quartile(completions: list[tuple[float, float]], seconds: float
                  ) -> tuple[float, float]:
    """Throughput and median latency of the window's fastest quarter.

    ``completions`` are (seconds since the window opened, latency in
    ms) per request.  The window is cut into one-second slices; the
    result is the upper quartile of the slices' completion rates and
    the lower quartile of the slices' median latencies.  The sandbox
    host flips between two speeds about 1.45x apart, staying in one
    for anything from a second to many minutes; interference only ever
    slows a slice down, so the fast quartile repeats where the whole
    window's mean does not.  Windows under four slices (smoke runs)
    fall back to the whole window.
    """
    slices: list[list[float]] = [[] for _ in range(int(seconds))]
    for ended, latency in completions:
        if ended < len(slices):
            slices[int(ended)].append(latency)
    medians = [statistics.median(s) for s in slices if s]
    if len(medians) < 4:
        latencies = [latency for _, latency in completions]
        return (len(completions) / max(ended for ended, _ in completions),
                statistics.median(latencies))
    rates = [float(len(s)) for s in slices]
    return (statistics.quantiles(rates, n=4)[2],
            statistics.quantiles(medians, n=4)[0])


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (A/A steadiness)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else 0.0
