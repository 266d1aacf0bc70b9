"""The replica syncer: pull committed segments, verify, commit, swap.

:class:`ReplicaSyncer` turns a local segment directory into a faithful
follower of a primary's committed state:

1. fetch the primary's replication manifest (committed state only);
2. per directory, skip when the local manifest already matches;
   otherwise pull each missing segment file to ``<name>.tmp``
   (resuming from a partial tmp's byte offset), verify its size and
   CRC against the manifest, fsync, and rename into place;
3. commit the directory's manifest atomically — the same
   tmp+fsync+rename discipline the primary itself uses, so a crash at
   any point leaves the replica on its previous committed generation;
4. hot-swap the serving index via
   :meth:`~repro.index.segments.segmented.SegmentedIndex.reopen_from_disk`
   — per the PR 6 generation contract, a content change bumps the
   generation (caches invalidate) while a merge-only change keeps warm
   caches intact.

Because segment files are immutable and verified before commit, every
pull is idempotent and the syncer needs no coordination with the
primary beyond the manifest: a merge on the primary mid-pull surfaces
as :class:`~repro.replication.source.SegmentVanished`, and the syncer
simply refetches the manifest and replans (bounded retries).

Lag is tracked two ways, both exported through the metrics registry
when telemetry is attached: ``schemr_replica_lag_seconds`` (time since
the replica last confirmed itself in sync) and
``schemr_replica_lag_operations`` (change-log distance at the last
manifest fetch).  ``/readyz`` on a replica gates on the former.
"""

from __future__ import annotations

import http.client
import logging
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import IndexError_, SchemrError, ServiceError
from repro.index.segments.directory import SegmentDirectory
from repro.index.segments.format import file_crc32
from repro.index.segments.sharded import (
    SHARDS_NAME,
    _write_shards_marker,
    detect_shard_count,
)
from repro.replication.manifest import validate_replication_manifest
from repro.replication.source import SegmentVanished
from repro.resilience.faults import FAULTS

logger = logging.getLogger(__name__)

#: How many times one sync cycle refetches the manifest when the
#: primary merges segments away mid-pull before giving up.
MANIFEST_RETRIES = 3


@dataclass
class SyncReport:
    """What one :meth:`ReplicaSyncer.sync_once` cycle did."""

    changed: bool = False
    pulled_segments: int = 0
    pulled_bytes: int = 0
    primary_generation: int = 0
    local_generation: int = 0
    dirs_updated: list[str] = field(default_factory=list)


class ReplicaSyncer:
    """Keeps a local segment directory caught up with a source."""

    def __init__(self, source, local_dir: str | Path, *,
                 index=None, telemetry=None,
                 poll_seconds: float = 1.0,
                 clock=time.monotonic) -> None:
        """``source`` speaks the protocol of
        :mod:`repro.replication.source`; ``index`` is the serving
        :class:`SegmentedIndex`/:class:`ShardedSegmentIndex` to
        hot-swap after commits (None for one-shot directory sync);
        ``clock`` is injectable for deterministic lag tests.
        """
        self._source = source
        self._root = Path(local_dir)
        self._index = index
        self._telemetry = telemetry
        self._poll_seconds = poll_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._last_sync: float | None = None
        self._primary_generation = 0
        self._local_generation = 0
        if telemetry is not None and telemetry.enabled:
            m = telemetry.metrics
            m.gauge("schemr_replica_lag_seconds",
                    "Seconds since the replica last confirmed sync",
                    callback=self.lag_seconds)
            m.gauge("schemr_replica_lag_operations",
                    "Change-log operations the replica trails by",
                    callback=lambda: float(self.lag_operations))
            m.gauge("schemr_replica_generation",
                    "Change-log cursor the replica serves",
                    callback=lambda: float(self._local_generation))

    def attach_index(self, index) -> None:
        """Adopt the serving index to hot-swap after future commits.

        Exists because a fresh replica's index can only be opened
        *after* the first sync creates the directory.  The pulled
        segments carry every schema's payload, so the swap is all a
        replica needs: it never reads the primary's database.
        """
        self._index = index

    # -- observability -----------------------------------------------------

    def lag_seconds(self) -> float:
        """Seconds since the last successful sync (inf before the
        first one — an unsynced replica is maximally stale)."""
        with self._lock:
            if self._last_sync is None:
                return float("inf")
            return max(0.0, self._clock() - self._last_sync)

    @property
    def lag_operations(self) -> int:
        """Change-log distance to the primary at the last manifest
        fetch (0 right after a successful sync)."""
        with self._lock:
            return max(0, self._primary_generation
                       - self._local_generation)

    @property
    def generation(self) -> int:
        """The change-log cursor the local directory durably reflects."""
        with self._lock:
            return self._local_generation

    def is_ready(self, max_lag_seconds: float) -> bool:
        """The ``/readyz`` gate: synced at least once, within lag."""
        return self.lag_seconds() <= max_lag_seconds

    def _count_sync(self, outcome: str) -> None:
        if self._telemetry is not None and self._telemetry.enabled:
            self._telemetry.metrics.counter(
                "schemr_replica_syncs_total",
                "Replica sync cycles by outcome", outcome=outcome).inc()

    # -- one sync cycle ----------------------------------------------------

    def sync_once(self) -> SyncReport:
        """Pull the primary's committed state; returns what changed.

        Raises :class:`~repro.errors.ServiceError` when the primary is
        unreachable, drops the connection mid-response, or keeps
        yanking segments faster than we can pull (pathological merge
        churn), and propagates verification failures — the poll loop
        counts those and tries again.
        """
        try:
            return self._sync_cycle()
        except SchemrError:
            self._count_sync("error")
            raise
        except (OSError, http.client.HTTPException) as exc:
            # A reset or truncated transfer; the partial ``.tmp`` it
            # left is resumed next cycle.
            self._count_sync("error")
            raise ServiceError(f"replica sync interrupted: {exc!r}") from exc

    def _sync_cycle(self) -> SyncReport:
        last: SegmentVanished | None = None
        for _ in range(MANIFEST_RETRIES):
            manifest = self._source.fetch_manifest()
            validate_replication_manifest(manifest)
            try:
                report = self._apply(manifest)
            except SegmentVanished as exc:
                last = exc
                continue
            with self._lock:
                self._last_sync = self._clock()
                self._primary_generation = report.primary_generation
                self._local_generation = report.local_generation
            self._count_sync("changed" if report.changed else "unchanged")
            if self._telemetry is not None and self._telemetry.enabled \
                    and report.pulled_segments:
                m = self._telemetry.metrics
                m.counter("schemr_replica_pulled_segments_total",
                          "Segment files pulled from the primary"
                          ).inc(report.pulled_segments)
                m.counter("schemr_replica_pulled_bytes_total",
                          "Segment bytes pulled from the primary"
                          ).inc(report.pulled_bytes)
            return report
        raise ServiceError(
            f"primary merged segments away {MANIFEST_RETRIES} times "
            f"mid-pull; giving up this cycle: {last}")

    def _apply(self, manifest: dict) -> SyncReport:
        report = SyncReport(primary_generation=manifest.get(
            "generation", 0))
        self._root.mkdir(parents=True, exist_ok=True)
        self._check_layout(manifest)
        cursors = []
        for entry in manifest["dirs"]:
            name = entry["name"]
            remote = entry["manifest"]
            cursors.append(remote.get("last_change_id", 0))
            dirpath = self._root / name if name else self._root
            if self._dir_current(dirpath, remote):
                continue
            dirpath.mkdir(parents=True, exist_ok=True)
            for segment in remote["segments"]:
                self._pull_segment(name, segment, dirpath, report)
            # Crash-injection site: every segment file for this
            # directory is verified and in place; the local manifest
            # still commits the previous generation.
            FAULTS.hit("replication.pull.pre_commit")
            SegmentDirectory(dirpath).write_manifest(
                next_id=remote["next_id"],
                last_change_id=remote.get("last_change_id", 0),
                segments=remote["segments"])
            report.dirs_updated.append(name or ".")
        report.local_generation = min(cursors, default=0)
        if self._index is not None and report.dirs_updated:
            report.changed = self._index.reopen_from_disk()
        elif report.dirs_updated:
            report.changed = True
        return report

    def _check_layout(self, manifest: dict) -> None:
        local_shards = detect_shard_count(self._root)
        if manifest["layout"] == "sharded":
            if (self._root / "MANIFEST.json").exists():
                raise IndexError_(
                    f"{self._root} is a flat segment directory; cannot "
                    f"replicate a sharded primary into it")
            if local_shards is None:
                _write_shards_marker(self._root / SHARDS_NAME,
                                     manifest["shards"])
            elif local_shards != manifest["shards"]:
                raise IndexError_(
                    f"{self._root} has {local_shards} shard(s) but the "
                    f"primary has {manifest['shards']}; doc-id routing "
                    f"would diverge")
        elif local_shards is not None:
            raise IndexError_(
                f"{self._root} is a sharded layout; cannot replicate a "
                f"flat primary into it")

    def _dir_current(self, dirpath: Path, remote: dict) -> bool:
        """True when the local committed manifest already matches."""
        directory = SegmentDirectory(dirpath)
        if not directory.manifest_path.exists():
            return False
        try:
            local = directory.read_manifest()
        except SchemrError:
            return False  # torn local manifest: re-pull and recommit
        return (local.get("last_change_id", 0)
                == remote.get("last_change_id", 0)
                and local["next_id"] == remote["next_id"]
                and _entries_key(local["segments"])
                == _entries_key(remote["segments"]))

    def _pull_segment(self, dirname: str, segment: dict, dirpath: Path,
                      report: SyncReport) -> None:
        path = dirpath / segment["file"]
        if path.exists() and path.stat().st_size == segment["bytes"]:
            # Immutable and was CRC-verified when it first landed
            # (either by a previous pull or by the primary's writer).
            return
        tmp = path.with_suffix(path.suffix + ".tmp")
        offset = tmp.stat().st_size if tmp.exists() else 0
        if offset > segment["bytes"]:
            tmp.unlink()  # stale tmp from an older generation's file
            offset = 0
        if offset < segment["bytes"]:
            with open(tmp, "ab") as handle:
                for block in self._source.segment_chunks(
                        dirname, segment["file"], offset):
                    handle.write(block)
                    # Crash-injection site: a torn pull leaves a
                    # partial ``.tmp`` the next cycle resumes from.
                    FAULTS.hit("replication.pull.chunk")
                handle.flush()
                os.fsync(handle.fileno())
        size = tmp.stat().st_size
        if size != segment["bytes"] or file_crc32(tmp) != segment["crc32"]:
            tmp.unlink()
            raise ServiceError(
                f"pulled segment {segment['file']} failed verification "
                f"(got {size} bytes; expected {segment['bytes']}); "
                f"discarded for re-pull")
        # Crash-injection site: the segment is verified and durable
        # under its tmp name but not yet visible at its final path.
        FAULTS.hit("replication.pull.pre_rename")
        tmp.replace(path)
        report.pulled_segments += 1
        report.pulled_bytes += segment["bytes"]

    # -- poll loop ---------------------------------------------------------

    def run(self) -> None:
        """Poll until :meth:`stop`; errors are counted, never fatal."""
        while not self._stop.is_set():
            try:
                self.sync_once()
            except SchemrError as exc:
                logger.warning("replica sync failed: %s", exc)
            self._stop.wait(self._poll_seconds)

    def start(self) -> None:
        """Run the poll loop on a daemon thread."""
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(target=self.run,
                                        name="schemr-replica-sync",
                                        daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=10.0)
            self._thread = None


def _entries_key(segments: list[dict]) -> list[tuple]:
    return [(entry["file"], tuple(sorted(entry.get("deleted", ()))),
             entry.get("bytes"), entry.get("crc32"))
            for entry in segments]
