"""Metric instruments: counters, gauges, and fixed-bucket histograms.

The registry is deliberately small — the three Prometheus instrument
kinds the pipeline actually needs, with label support and a text
exposition — rather than a client-library clone.  Two properties drive
the design:

* **Lock-protected updates.**  ``value += amount`` is a read-modify-write
  and the match phase runs on worker threads, so every instrument guards
  its state with its own lock; the registry lock only protects the
  instrument map (get-or-create is idempotent, so instruments can be
  resolved lazily from any code path).
* **Near-zero cost when disabled.**  A registry constructed with
  ``enabled=False`` hands out process-wide null instruments whose
  methods are empty single-dispatch calls — the disabled pipeline pays
  one attribute lookup and one no-op call per *query*, not per posting.

Snapshots (:meth:`MetricsRegistry.snapshot`) are point-in-time copies
taken under the locks, so ``/metrics`` scrapes never observe a torn
histogram.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

#: Default histogram buckets, in seconds — tuned for the pipeline's
#: observed range (sub-millisecond cache hits to multi-second cold
#: searches on large corpora).
DEFAULT_TIME_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Default buckets for size-ish histograms (candidate counts, batch
#: sizes).
DEFAULT_COUNT_BUCKETS: tuple[float, ...] = (
    0, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000,
)

LabelPairs = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, str]) -> LabelPairs:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("_lock", "_value", "_callback")

    def __init__(self, callback: Callable[[], float] | None = None) -> None:
        self._lock = threading.Lock()
        self._value = 0.0
        self._callback = callback

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        if self._callback is not None:
            return float(self._callback())
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down (or is read from a callback)."""

    __slots__ = ("_lock", "_value", "_callback")

    def __init__(self, callback: Callable[[], float] | None = None) -> None:
        self._lock = threading.Lock()
        self._value = 0.0
        self._callback = callback

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        if self._callback is not None:
            return float(self._callback())
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram with cumulative Prometheus semantics.

    ``bucket_counts[i]`` counts observations ``<= buckets[i]``
    (non-cumulative internally; the exposition cumulates).  The implicit
    ``+Inf`` bucket is ``count``.
    """

    __slots__ = ("_lock", "_buckets", "_counts", "_sum", "_count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_TIME_BUCKETS) \
            -> None:
        upper = tuple(float(b) for b in buckets)
        if not upper:
            raise ValueError("histogram needs at least one bucket")
        if list(upper) != sorted(upper):
            raise ValueError(f"buckets must be sorted ascending: {upper}")
        if len(set(upper)) != len(upper):
            raise ValueError(f"buckets must be distinct: {upper}")
        self._lock = threading.Lock()
        self._buckets = upper
        self._counts = [0] * (len(upper) + 1)  # final slot: > last bucket
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = bisect_left(self._buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def buckets(self) -> tuple[float, ...]:
        return self._buckets

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def bucket_counts(self) -> list[int]:
        """Per-bucket (non-cumulative) counts; last slot is overflow."""
        with self._lock:
            return list(self._counts)

    def quantile(self, q: float) -> float:
        """Approximate quantile by linear interpolation within buckets.

        Overflow observations clamp to the last finite bound — good
        enough for the ``/stats`` p50/p95 summary, which only needs the
        right order of magnitude.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            total = self._count
            counts = list(self._counts)
        if total == 0:
            return 0.0
        rank = q * total
        seen = 0.0
        lower = 0.0
        for i, bucket_count in enumerate(counts):
            upper = (self._buckets[i] if i < len(self._buckets)
                     else self._buckets[-1])
            if seen + bucket_count >= rank:
                if bucket_count == 0 or i >= len(self._buckets):
                    return upper
                fraction = (rank - seen) / bucket_count
                return lower + (upper - lower) * fraction
            seen += bucket_count
            lower = upper
        return self._buckets[-1]


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


#: Process-wide no-op instruments shared by every disabled registry.
NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram((1.0,))


@dataclass(frozen=True, slots=True)
class MetricSample:
    """One (name, labels) series at snapshot time."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    help: str
    labels: LabelPairs
    value: float = 0.0
    #: Histogram-only: (upper_bound, non-cumulative count) pairs plus
    #: sum/count.
    buckets: tuple[tuple[float, int], ...] = ()
    sum: float = 0.0
    count: int = 0


@dataclass(slots=True)
class MetricsSnapshot:
    """Point-in-time copy of every registered series."""

    samples: list[MetricSample] = field(default_factory=list)

    def find(self, name: str, **labels: str) -> MetricSample | None:
        """The sample for ``name`` whose labels include ``labels``."""
        want = set(_label_key(labels))
        for sample in self.samples:
            if sample.name == name and want <= set(sample.labels):
                return sample
        return None

    def value(self, name: str, **labels: str) -> float:
        sample = self.find(name, **labels)
        return sample.value if sample is not None else 0.0


class MetricsRegistry:
    """Named, labelled instruments with get-or-create resolution.

    ``counter("x", ...)`` called twice with the same name and labels
    returns the same instrument, so call sites resolve instruments
    lazily without coordinating creation.  A disabled registry returns
    the shared null instruments and records nothing.
    """

    def __init__(self, enabled: bool = True) -> None:
        self._enabled = enabled
        self._lock = threading.Lock()
        # name -> (kind, help); series: (name, labels) -> instrument.
        self._meta: dict[str, tuple[str, str]] = {}
        self._series: dict[tuple[str, LabelPairs], object] = {}

    @property
    def enabled(self) -> bool:
        return self._enabled

    # -- instrument resolution -----------------------------------------

    def counter(self, name: str, help: str = "",  # noqa: A002
                callback: Callable[[], float] | None = None,
                **labels: str) -> Counter:
        if not self._enabled:
            return NULL_COUNTER
        return self._resolve(name, "counter", help, labels,
                             lambda: Counter(callback))

    def gauge(self, name: str, help: str = "",  # noqa: A002
              callback: Callable[[], float] | None = None,
              **labels: str) -> Gauge:
        if not self._enabled:
            return NULL_GAUGE
        return self._resolve(name, "gauge", help, labels,
                             lambda: Gauge(callback))

    def histogram(self, name: str, help: str = "",  # noqa: A002
                  buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
                  **labels: str) -> Histogram:
        if not self._enabled:
            return NULL_HISTOGRAM
        return self._resolve(name, "histogram", help, labels,
                             lambda: Histogram(buckets))

    def _resolve(self, name: str, kind: str, help_text: str,
                 labels: Mapping[str, str], factory) -> object:
        key = (name, _label_key(labels))
        with self._lock:
            existing_meta = self._meta.get(name)
            if existing_meta is not None and existing_meta[0] != kind:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing_meta[0]}, not {kind}")
            instrument = self._series.get(key)
            if instrument is None:
                instrument = factory()
                self._series[key] = instrument
                if existing_meta is None or (help_text
                                             and not existing_meta[1]):
                    self._meta[name] = (kind, help_text)
            return instrument

    # -- export --------------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        with self._lock:
            series = list(self._series.items())
            meta = dict(self._meta)
        samples: list[MetricSample] = []
        for (name, labels), instrument in series:
            kind, help_text = meta[name]
            if isinstance(instrument, Histogram):
                counts = instrument.bucket_counts()
                bounds = instrument.buckets
                samples.append(MetricSample(
                    name=name, kind=kind, help=help_text, labels=labels,
                    buckets=tuple(zip(bounds, counts[:-1])),
                    sum=instrument.sum, count=instrument.count,
                    value=float(instrument.count)))
            else:
                samples.append(MetricSample(
                    name=name, kind=kind, help=help_text, labels=labels,
                    value=instrument.value))  # type: ignore[union-attr]
        samples.sort(key=lambda s: (s.name, s.labels))
        return MetricsSnapshot(samples=samples)

    def to_prometheus_text(self) -> str:
        """The registry in Prometheus text exposition format 0.0.4."""
        lines: list[str] = []
        last_name = None
        for sample in self.snapshot().samples:
            if sample.name != last_name:
                if sample.help:
                    lines.append(f"# HELP {sample.name} {sample.help}")
                lines.append(f"# TYPE {sample.name} {sample.kind}")
                last_name = sample.name
            if sample.kind == "histogram":
                cumulative = 0
                for bound, bucket_count in sample.buckets:
                    cumulative += bucket_count
                    labels = _render_labels(sample.labels
                                            + (("le", _format(bound)),))
                    lines.append(f"{sample.name}_bucket{labels} "
                                 f"{cumulative}")
                labels = _render_labels(sample.labels + (("le", "+Inf"),))
                lines.append(f"{sample.name}_bucket{labels} {sample.count}")
                plain = _render_labels(sample.labels)
                lines.append(f"{sample.name}_sum{plain} "
                             f"{_format(sample.sum)}")
                lines.append(f"{sample.name}_count{plain} {sample.count}")
            else:
                labels = _render_labels(sample.labels)
                lines.append(f"{sample.name}{labels} "
                             f"{_format(sample.value)}")
        return "\n".join(lines) + ("\n" if lines else "")


def _render_labels(pairs: Iterable[tuple[str, str]]) -> str:
    rendered = ",".join(
        f'{key}="{_escape(value)}"' for key, value in pairs)
    return f"{{{rendered}}}" if rendered else ""


def _escape(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _format(value: float) -> str:
    """A sample value as the exposition format spells it: integral
    values without a decimal point, non-finite ones as ``+Inf``,
    ``-Inf`` and ``NaN``."""
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)
