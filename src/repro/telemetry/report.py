"""Render a :class:`~repro.telemetry.Telemetry` state for humans.

Two renditions of the same aggregation: a text table for ``schemr
stats`` and an XML document for the ``/stats`` endpoint (the service's
wire format is XML throughout).  Both read only snapshot data — the
metrics registry snapshot, the profile log rings — so rendering never
blocks the serving path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.telemetry.metrics import MetricSample

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.telemetry import Telemetry

#: Metric names summarized by both renditions.
_CACHES = (("query", "schemr_query_cache"),)


def sample_quantile(sample: MetricSample, q: float) -> float:
    """Approximate quantile of a histogram *sample* (snapshot data).

    Mirrors :meth:`repro.telemetry.metrics.Histogram.quantile`, but
    computed from the frozen bucket counts so report rendering does not
    race live observations.
    """
    total = sample.count
    if total == 0:
        return 0.0
    rank = q * total
    seen = 0.0
    lower = 0.0
    for bound, bucket_count in sample.buckets:
        if seen + bucket_count >= rank:
            if bucket_count == 0:
                return bound
            return lower + (bound - lower) * (rank - seen) / bucket_count
        seen += bucket_count
        lower = bound
    # Rank falls in the +Inf overflow bucket: clamp to the last bound.
    return sample.buckets[-1][0] if sample.buckets else 0.0


def summary_text(telemetry: "Telemetry") -> str:
    """Human-readable stats table (``schemr stats``)."""
    snapshot = telemetry.metrics.snapshot()
    profiles = telemetry.profiles
    lines: list[str] = []
    searches = snapshot.value("schemr_searches_total")
    lines.append(f"searches:        {int(searches)}")
    lines.append(f"slow queries:    {profiles.slow_count} "
                 f"(threshold {profiles.slow_threshold_seconds * 1000:.0f}"
                 f" ms)")
    for name in ("schemr_index_documents", "schemr_index_terms",
                 "schemr_index_generation"):
        sample = snapshot.find(name)
        if sample is not None:
            label = name.removeprefix("schemr_index_")
            lines.append(f"index {label + ':':<11} {int(sample.value)}")
    lines.append("")
    lines.append(f"{'phase':<22} {'count':>7} {'p50 ms':>9} {'p95 ms':>9}")
    for sample in snapshot.samples:
        if sample.name != "schemr_phase_seconds":
            continue
        phase = dict(sample.labels).get("phase", "?")
        lines.append(
            f"{phase:<22} {sample.count:>7} "
            f"{sample_quantile(sample, 0.5) * 1000:>9.3f} "
            f"{sample_quantile(sample, 0.95) * 1000:>9.3f}")
    total = snapshot.find("schemr_search_seconds")
    if total is not None:
        lines.append(
            f"{'total':<22} {total.count:>7} "
            f"{sample_quantile(total, 0.5) * 1000:>9.3f} "
            f"{sample_quantile(total, 0.95) * 1000:>9.3f}")
    lines.append("")
    for label, prefix in _CACHES:
        hits = snapshot.value(f"{prefix}_hits_total")
        misses = snapshot.value(f"{prefix}_misses_total")
        evictions = snapshot.value(f"{prefix}_evictions_total")
        lookups = hits + misses
        rate = hits / lookups if lookups else 0.0
        lines.append(f"{label + ' cache:':<15} hits={int(hits)} "
                     f"misses={int(misses)} evictions={int(evictions)} "
                     f"hit_rate={rate:.2%}")
    empties = [s for s in snapshot.samples
               if s.name == "schemr_empty_results_total" and s.value]
    if empties:
        lines.append("")
        lines.append("empty results by reason:")
        for sample in empties:
            reason = dict(sample.labels).get("reason", "?")
            lines.append(f"  {reason:<24}{int(sample.value)}")
    slow = profiles.slow(limit=5)
    if slow:
        lines.append("")
        lines.append("slowest recent queries:")
        for profile in slow:
            terms = " ".join(profile.query_terms) or "<fragment>"
            lines.append(f"  {profile.total_seconds * 1000:>9.2f} ms  "
                         f"{terms}")
    return "\n".join(lines)


def summary_xml(telemetry: "Telemetry") -> str:
    """The ``/stats`` endpoint payload."""
    snapshot = telemetry.metrics.snapshot()
    profiles = telemetry.profiles
    parts: list[str] = ['<?xml version="1.0"?>', "<stats>"]
    parts.append(
        f'  <engine searches="{int(snapshot.value("schemr_searches_total"))}"'
        f' slow_queries="{profiles.slow_count}"'
        f' slow_threshold_seconds="{profiles.slow_threshold_seconds}"/>')
    index_attrs = []
    for name in ("schemr_index_documents", "schemr_index_terms",
                 "schemr_index_generation"):
        sample = snapshot.find(name)
        if sample is not None:
            index_attrs.append(
                f'{name.removeprefix("schemr_index_")}='
                f'"{int(sample.value)}"')
    if index_attrs:
        parts.append(f'  <index {" ".join(index_attrs)}/>')
    parts.append("  <phases>")
    for sample in snapshot.samples:
        if sample.name != "schemr_phase_seconds":
            continue
        phase = dict(sample.labels).get("phase", "?")
        parts.append(
            f'    <phase name="{_escape(phase)}" count="{sample.count}"'
            f' p50_ms="{sample_quantile(sample, 0.5) * 1000:.4f}"'
            f' p95_ms="{sample_quantile(sample, 0.95) * 1000:.4f}"/>')
    parts.append("  </phases>")
    parts.append("  <caches>")
    for label, prefix in _CACHES:
        hits = snapshot.value(f"{prefix}_hits_total")
        misses = snapshot.value(f"{prefix}_misses_total")
        evictions = snapshot.value(f"{prefix}_evictions_total")
        lookups = hits + misses
        rate = hits / lookups if lookups else 0.0
        parts.append(
            f'    <cache name="{label}" hits="{int(hits)}"'
            f' misses="{int(misses)}" evictions="{int(evictions)}"'
            f' hit_rate="{rate:.4f}"/>')
    parts.append("  </caches>")
    parts.append("  <empty_results>")
    for sample in snapshot.samples:
        if sample.name == "schemr_empty_results_total" and sample.value:
            reason = dict(sample.labels).get("reason", "?")
            parts.append(f'    <reason name="{_escape(reason)}"'
                         f' count="{int(sample.value)}"/>')
    parts.append("  </empty_results>")
    parts.append("  <slow_queries>")
    for profile in profiles.slow(limit=10):
        terms = _escape(" ".join(profile.query_terms))
        parts.append(
            f'    <query terms="{terms}"'
            f' seconds="{profile.total_seconds:.6f}"'
            f' candidates="{profile.candidate_count}"'
            f' results="{profile.result_count}"/>')
    parts.append("  </slow_queries>")
    parts.append("</stats>")
    return "\n".join(parts)


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))
