"""Replicated serving: segment shipping, failover, crash recovery.

Three concerns share this file because they share the same property:
committed state is the only state that exists.

* The **syncer** (`repro.replication`) must make a replica directory
  byte-identical to the primary's committed manifest — flat or
  sharded, from scratch or incrementally — and a merge-only change on
  the primary must not bump the replica's serving generation (warm
  caches survive, per the PR 6 contract).
* The **client** must fail over across endpoints, demote dead or
  shedding targets, prefer the freshest replica, and honor
  ``Retry-After`` with capped, jittered backoff — all under a fake
  clock/sleep/rng so the suite never actually waits.
* The **crash harness** arms each ``segments.*`` / ``replication.*``
  fault site in turn and asserts the recovery invariant: reopening the
  directory (with the orphan sweep) always yields the last *committed*
  generation, byte-identical, at every site.
"""

from __future__ import annotations

import http.client
import json
import random
import time

import pytest

from repro.errors import (IndexError_, SchemrError, SegmentDirectoryError,
                          ServiceError)
from repro.index.documents import Document
from repro.index.segments import (
    SegmentedIndex,
    TieredMergePolicy,
    open_segment_index,
    verify_directory,
)
from repro.index.segments.sharded import SHARDS_NAME
from repro.replication import (
    DirectorySource,
    ReplicaSyncer,
    build_replication_manifest,
    valid_segment_ref,
    validate_replication_manifest,
)
from repro.resilience.faults import FAULTS
from repro.resilience.retry import RetryPolicy
from repro.service.client import SchemrClient
from repro.telemetry import Telemetry


class SimulatedCrash(Exception):
    """Raised by an armed fault site; models the process dying there."""


class FakeClock:
    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture(autouse=True)
def clean_faults():
    FAULTS.reset()
    yield
    FAULTS.reset()


def doc(i: int) -> Document:
    words = ["patient", "height", "salary", "orbit", "kelp", "ledger"]
    return Document(i, f"doc{i}", summary=f"s{i}",
                    terms=[words[i % len(words)], words[(i + 1) % 6], "common"])


def make_primary(path, count: int = 8, shards: int | None = None):
    index = open_segment_index(path, shards=shards, create=True)
    for i in range(count):
        index.add(doc(i))
    index.flush(last_change_id=count)
    return index


def committed_state(root) -> dict[str, bytes]:
    """Every committed byte under ``root``: control files plus the
    segment files the manifests actually reference."""
    state = {}
    for manifest_path in sorted(root.rglob("MANIFEST.json")):
        rel_dir = manifest_path.parent.relative_to(root)
        state[str(rel_dir / "MANIFEST.json")] = manifest_path.read_bytes()
        for entry in json.loads(manifest_path.read_text())["segments"]:
            seg = manifest_path.parent / entry["file"]
            state[str(rel_dir / entry["file"])] = seg.read_bytes()
    marker = root / SHARDS_NAME
    if marker.exists():
        state[SHARDS_NAME] = marker.read_bytes()
    return state


def ranked_names(index, term: str = "common") -> list[str]:
    postings = index.postings(term)
    ids = list(postings.doc_ids()) if postings is not None else []
    return [index.document(i).title for i in ids]


# -- replication manifest ----------------------------------------------------

class TestReplicationManifest:
    def test_flat_manifest_shape(self, tmp_path):
        make_primary(tmp_path / "p")
        manifest = build_replication_manifest(tmp_path / "p")
        validate_replication_manifest(manifest)
        assert manifest["layout"] == "flat"
        assert manifest["shards"] is None
        assert manifest["generation"] == 8
        (entry,) = manifest["dirs"]
        assert entry["name"] == ""
        for segment in entry["manifest"]["segments"]:
            assert segment["bytes"] > 0
            assert "crc32" in segment

    def test_sharded_manifest_shape(self, tmp_path):
        make_primary(tmp_path / "p", shards=2)
        manifest = build_replication_manifest(tmp_path / "p")
        validate_replication_manifest(manifest)
        assert manifest["layout"] == "sharded"
        assert manifest["shards"] == 2
        assert [d["name"] for d in manifest["dirs"]] == \
            ["shard_0000", "shard_0001"]

    def test_rejects_path_traversal(self):
        assert valid_segment_ref("", "seg_00000001.seg")
        assert valid_segment_ref("shard_0003", "seg_00000001.seg")
        assert not valid_segment_ref("", "../../etc/passwd")
        assert not valid_segment_ref("..", "seg_00000001.seg")
        assert not valid_segment_ref("", "seg_00000001.seg.tmp")
        assert not valid_segment_ref("shard_x", "seg_00000001.seg")

    def test_validate_rejects_foreign_format(self, tmp_path):
        make_primary(tmp_path / "p")
        manifest = build_replication_manifest(tmp_path / "p")
        manifest["format"] = 99
        with pytest.raises(IndexError_, match="format"):
            validate_replication_manifest(manifest)


# -- the syncer --------------------------------------------------------------

class DroppingSource(DirectorySource):
    """A directory source whose first segment transfer dies after one
    chunk, the way a primary resetting the connection mid-response
    surfaces through :class:`~repro.replication.source.HttpSource`."""

    def __init__(self, root, error: Exception) -> None:
        super().__init__(root)
        self._error: Exception | None = error

    def segment_chunks(self, dirname, filename, offset=0):
        chunks = super().segment_chunks(dirname, filename, offset)
        if self._error is None:
            yield from chunks
            return
        error, self._error = self._error, None
        try:
            yield next(chunks)
        finally:
            chunks.close()
        raise error


class TestReplicaSyncer:
    def test_flat_round_trip_byte_identical(self, tmp_path):
        primary = make_primary(tmp_path / "p")
        syncer = ReplicaSyncer(DirectorySource(tmp_path / "p"),
                               tmp_path / "r")
        report = syncer.sync_once()
        assert report.changed
        assert report.pulled_segments >= 1
        assert report.local_generation == 8
        assert committed_state(tmp_path / "r") == \
            committed_state(tmp_path / "p")
        assert verify_directory(tmp_path / "r").ok

    def test_second_sync_is_a_noop(self, tmp_path):
        primary = make_primary(tmp_path / "p")
        syncer = ReplicaSyncer(DirectorySource(tmp_path / "p"),
                               tmp_path / "r")
        syncer.sync_once()
        report = syncer.sync_once()
        assert not report.changed
        assert report.pulled_segments == 0

    def test_incremental_pull_and_generation_bump(self, tmp_path):
        primary = make_primary(tmp_path / "p")
        syncer = ReplicaSyncer(DirectorySource(tmp_path / "p"),
                               tmp_path / "r")
        syncer.sync_once()
        replica = SegmentedIndex.open(tmp_path / "r")
        syncer.attach_index(replica)
        generation = replica.generation

        primary.add(doc(100))
        primary.flush(last_change_id=9)
        report = syncer.sync_once()
        assert report.changed
        assert replica.generation > generation  # content change: caches drop
        assert replica.has_document(100)
        assert ranked_names(replica) == ranked_names(primary)

    def test_merge_only_change_keeps_generation(self, tmp_path):
        primary = make_primary(tmp_path / "p")
        primary.add(doc(50))
        primary.flush(last_change_id=9)  # two segments now
        syncer = ReplicaSyncer(DirectorySource(tmp_path / "p"),
                               tmp_path / "r")
        syncer.sync_once()
        replica = SegmentedIndex.open(tmp_path / "r")
        syncer.attach_index(replica)
        generation = replica.generation
        before = ranked_names(replica)

        assert primary.maybe_merge(TieredMergePolicy(max_per_tier=1))
        report = syncer.sync_once()
        assert not report.changed  # physical swap, same last_change_id
        assert replica.generation == generation  # warm caches survive
        assert replica.segment_count == primary.segment_count == 1
        assert ranked_names(replica) == before

    def test_sharded_round_trip(self, tmp_path):
        primary = make_primary(tmp_path / "p", shards=2)
        syncer = ReplicaSyncer(DirectorySource(tmp_path / "p"),
                               tmp_path / "r")
        report = syncer.sync_once()
        assert report.changed
        assert committed_state(tmp_path / "r") == \
            committed_state(tmp_path / "p")
        replica = open_segment_index(tmp_path / "r")
        assert replica.shard_count == 2
        assert sorted(d.doc_id for d in replica.documents()) == \
            sorted(d.doc_id for d in primary.documents())
        assert verify_directory(tmp_path / "r").ok

    def test_refuses_layout_mismatch(self, tmp_path):
        flat = make_primary(tmp_path / "flat")
        sharded = make_primary(tmp_path / "sharded", shards=2)
        ReplicaSyncer(DirectorySource(tmp_path / "flat"),
                      tmp_path / "r1").sync_once()
        with pytest.raises(IndexError_, match="flat"):
            ReplicaSyncer(DirectorySource(tmp_path / "sharded"),
                          tmp_path / "r1").sync_once()
        ReplicaSyncer(DirectorySource(tmp_path / "sharded"),
                      tmp_path / "r2").sync_once()
        with pytest.raises(IndexError_, match="sharded"):
            ReplicaSyncer(DirectorySource(tmp_path / "flat"),
                          tmp_path / "r2").sync_once()

    def test_lag_and_readiness(self, tmp_path):
        primary = make_primary(tmp_path / "p")
        clock = FakeClock()
        syncer = ReplicaSyncer(DirectorySource(tmp_path / "p"),
                               tmp_path / "r", clock=clock)
        assert syncer.lag_seconds() == float("inf")
        assert not syncer.is_ready(max_lag_seconds=30.0)
        syncer.sync_once()
        assert syncer.lag_seconds() == 0.0
        assert syncer.is_ready(max_lag_seconds=30.0)
        assert syncer.lag_operations == 0
        assert syncer.generation == 8
        clock.advance(31.0)
        assert not syncer.is_ready(max_lag_seconds=30.0)

    def test_metrics_registered_and_counted(self, tmp_path):
        primary = make_primary(tmp_path / "p")
        telemetry = Telemetry(enabled=True)
        syncer = ReplicaSyncer(DirectorySource(tmp_path / "p"),
                               tmp_path / "r", telemetry=telemetry)
        syncer.sync_once()
        syncer.sync_once()
        text = telemetry.metrics.to_prometheus_text()
        assert "schemr_replica_lag_seconds" in text
        assert "schemr_replica_generation 8" in text
        assert 'schemr_replica_syncs_total{outcome="changed"} 1' in text
        assert 'schemr_replica_syncs_total{outcome="unchanged"} 1' in text
        assert "schemr_replica_pulled_segments_total 1" in text


    @pytest.mark.parametrize("error", [
        ConnectionResetError(104, "Connection reset by peer"),
        http.client.IncompleteRead(b"partial", 4096),
    ], ids=["connection_reset", "incomplete_read"])
    def test_dropped_transfer_keeps_the_poll_loop_alive(self, tmp_path,
                                                        error):
        make_primary(tmp_path / "p")
        telemetry = Telemetry(enabled=True)
        syncer = ReplicaSyncer(DroppingSource(tmp_path / "p", error),
                               tmp_path / "r", telemetry=telemetry,
                               poll_seconds=0.01)
        syncer.start()
        try:
            deadline = time.monotonic() + 10.0
            while syncer.generation != 8 and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            syncer.stop()
        # The dropped transfer was one counted error; the next cycle
        # resumed the partial pull and committed the primary's state.
        assert syncer.generation == 8
        text = telemetry.metrics.to_prometheus_text()
        assert 'schemr_replica_syncs_total{outcome="error"} 1' in text
        assert committed_state(tmp_path / "r") == \
            committed_state(tmp_path / "p")



# -- torn control files ------------------------------------------------------

class TestTornControlFiles:
    def test_torn_manifest_is_structured(self, tmp_path):
        make_primary(tmp_path / "p")
        manifest = tmp_path / "p" / "MANIFEST.json"
        manifest.write_text('{"next_id": 2, "segm')  # torn mid-write
        with pytest.raises(SegmentDirectoryError) as excinfo:
            SegmentedIndex.open(tmp_path / "p")
        assert excinfo.value.path == str(manifest)
        assert "replica" in str(excinfo.value)  # recovery hint names a path out

    def test_manifest_missing_keys_is_structured(self, tmp_path):
        make_primary(tmp_path / "p")
        (tmp_path / "p" / "MANIFEST.json").write_text('{"format": 1, "next_id": 2}')
        with pytest.raises(SegmentDirectoryError, match="segments"):
            SegmentedIndex.open(tmp_path / "p")

    def test_torn_shards_marker_is_structured(self, tmp_path):
        make_primary(tmp_path / "p", shards=2)
        marker = tmp_path / "p" / SHARDS_NAME
        marker.write_text('{"shards":')
        with pytest.raises(SegmentDirectoryError) as excinfo:
            open_segment_index(tmp_path / "p")
        assert excinfo.value.path == str(marker)
        assert "re-indexing" in str(excinfo.value)


# -- startup orphan sweep ----------------------------------------------------

class TestOrphanSweep:
    def seed_debris(self, tmp_path):
        index = make_primary(tmp_path / "p")
        root = tmp_path / "p"
        (root / "seg_99999999.seg").write_bytes(b"uncommitted segment")
        (root / "seg_00001234.seg.tmp").write_bytes(b"torn write")
        (root / "MANIFEST.json.tmp").write_bytes(b"torn manifest")
        return root

    def test_sweep_removes_debris_and_keeps_committed(self, tmp_path):
        root = self.seed_debris(tmp_path)
        committed = committed_state(root)
        index = SegmentedIndex.open(root, sweep=True)
        assert not (root / "seg_99999999.seg").exists()
        assert not list(root.glob("*.tmp"))
        assert committed_state(root) == committed
        assert index.document_count == 8

    def test_plain_open_leaves_debris(self, tmp_path):
        # Read-only openers (shard workers) must not sweep: a freshly
        # renamed segment is unreferenced until its manifest lands.
        root = self.seed_debris(tmp_path)
        index = SegmentedIndex.open(root)
        assert (root / "seg_99999999.seg").exists()
        assert (root / "MANIFEST.json.tmp").exists()

    def test_verify_reports_debris_as_warnings(self, tmp_path):
        root = self.seed_debris(tmp_path)
        report = verify_directory(root)
        assert report.ok  # debris never fails verification
        assert len(report.warnings) == 3


# -- crash injection ---------------------------------------------------------

#: Writer-side fault sites and whether the mutation commits when the
#: process dies exactly there.  Only past the manifest rename is the
#: new generation durable; everywhere earlier recovery must land on
#: the previous committed state.
WRITER_SITES = [
    ("segments.write.torn", False),
    ("segments.write.pre_rename", False),
    ("segments.flush.pre_commit", False),
    ("segments.manifest.pre_rename", False),
    ("segments.manifest.post_rename", True),
]


class TestCrashInjection:
    @pytest.mark.parametrize("site,committed_after", WRITER_SITES)
    def test_flush_crash_recovers_to_committed(self, tmp_path, site,
                                               committed_after):
        index = make_primary(tmp_path / "p")
        before = committed_state(tmp_path / "p")
        baseline = ranked_names(index)

        FAULTS.inject(site, error=SimulatedCrash(site), times=1)
        index.add(doc(100))
        with pytest.raises(SimulatedCrash):
            index.flush(last_change_id=9)
        FAULTS.reset()

        # The crashed process is gone; recovery is a fresh sweep-open.
        reopened = SegmentedIndex.open(tmp_path / "p", sweep=True)
        assert verify_directory(tmp_path / "p").ok
        if committed_after:
            assert reopened.last_change_id == 9
            assert reopened.has_document(100)
        else:
            assert committed_state(tmp_path / "p") == before
            assert reopened.last_change_id == 8
            assert ranked_names(reopened) == baseline
        # The write-ahead redo: replaying the mutation converges.
        if not committed_after:
            reopened.add(doc(100))
            reopened.flush(last_change_id=9)
        assert reopened.has_document(100)
        assert reopened.last_change_id == 9

    def test_merge_crash_recovers_to_premerge(self, tmp_path):
        index = make_primary(tmp_path / "p")
        index.add(doc(50))
        index.flush(last_change_id=9)
        before = committed_state(tmp_path / "p")
        baseline = ranked_names(index)

        FAULTS.inject("segments.merge.pre_commit",
                      error=SimulatedCrash("merge"), times=1)
        with pytest.raises(SimulatedCrash):
            index.maybe_merge(TieredMergePolicy(max_per_tier=1))
        FAULTS.reset()

        reopened = SegmentedIndex.open(tmp_path / "p", sweep=True)
        assert committed_state(tmp_path / "p") == before
        assert verify_directory(tmp_path / "p").ok
        assert ranked_names(reopened) == baseline
        # Redo converges: the merge applies cleanly on the second try.
        assert reopened.maybe_merge(TieredMergePolicy(max_per_tier=1))
        assert reopened.segment_count == 1
        assert ranked_names(reopened) == baseline

    @pytest.mark.parametrize("site", ["replication.pull.chunk",
                                      "replication.pull.pre_rename",
                                      "replication.pull.pre_commit"])
    def test_pull_crash_keeps_replica_on_committed_generation(
            self, tmp_path, site):
        primary = make_primary(tmp_path / "p")
        syncer = ReplicaSyncer(DirectorySource(tmp_path / "p"),
                               tmp_path / "r")
        syncer.sync_once()
        before = committed_state(tmp_path / "r")

        primary.add(doc(100))
        primary.flush(last_change_id=9)
        FAULTS.inject(site, error=SimulatedCrash(site), times=1)
        with pytest.raises(SimulatedCrash):
            syncer.sync_once()
        FAULTS.reset()

        # The half-pulled generation is invisible: committed state is
        # exactly what the last successful sync left.
        assert committed_state(tmp_path / "r") == before
        replica = SegmentedIndex.open(tmp_path / "r", sweep=False)
        assert replica.last_change_id == 8

        # A fresh syncer (new process) converges byte-identically.
        report = ReplicaSyncer(DirectorySource(tmp_path / "p"),
                               tmp_path / "r").sync_once()
        assert report.changed
        assert committed_state(tmp_path / "r") == \
            committed_state(tmp_path / "p")
        assert verify_directory(tmp_path / "r").ok

    def test_pull_resumes_partial_tmp(self, tmp_path):
        primary = make_primary(tmp_path / "p")
        primary.add(doc(100))
        primary.flush(last_change_id=9)
        FAULTS.inject("replication.pull.chunk",
                      error=SimulatedCrash("torn pull"), times=1)
        with pytest.raises(SimulatedCrash):
            ReplicaSyncer(DirectorySource(tmp_path / "p"),
                          tmp_path / "r").sync_once()
        FAULTS.reset()
        tmps = list((tmp_path / "r").glob("*.tmp"))
        assert tmps and tmps[0].stat().st_size > 0  # evidence to resume
        ReplicaSyncer(DirectorySource(tmp_path / "p"),
                      tmp_path / "r").sync_once()
        assert committed_state(tmp_path / "r") == \
            committed_state(tmp_path / "p")


# -- client failover and backoff ---------------------------------------------

class ScriptedClient(SchemrClient):
    """SchemrClient with the HTTP exchange replaced by a script.

    ``script`` maps endpoint URL to a list of outcomes: an exception to
    raise, or ``(generation, text)`` to succeed with.  The last entry
    repeats forever.
    """

    def __init__(self, script, **kwargs):
        self.script = script
        self.calls: list[str] = []
        self.sleeps: list[float] = []
        kwargs.setdefault("sleep", self.sleeps.append)
        kwargs.setdefault("rng", random.Random(7))
        super().__init__(list(script), **kwargs)

    def _fetch(self, endpoint, path, body):
        self.calls.append(endpoint.url)
        outcomes = self.script[endpoint.url]
        outcome = outcomes.pop(0) if len(outcomes) > 1 else outcomes[0]
        if isinstance(outcome, Exception):
            raise outcome
        generation, text = outcome
        self.last_endpoint = endpoint.url
        if generation is not None:
            endpoint.last_generation = generation
            self.last_generation = generation
        return text

    def get(self, path="/x"):
        return self._request(path)


def down(url: str) -> ServiceError:
    return ServiceError(f"cannot reach {url}: refused")  # status None


class TestClientFailover:
    def test_failover_to_replica_on_connect_failure(self):
        client = ScriptedClient({"http://p": [down("http://p")],
                                 "http://r": [(8, "ok")]},
                                clock=FakeClock())
        assert client.get() == "ok"
        assert client.calls == ["http://p", "http://r"]
        assert client.last_endpoint == "http://r"
        assert client.last_generation == 8

    def test_demoted_primary_is_skipped_then_reprobed(self):
        clock = FakeClock()
        client = ScriptedClient({"http://p": [down("http://p"), (9, "p")],
                                 "http://r": [(8, "r")]},
                                clock=clock, demote_seconds=5.0)
        assert client.get() == "r"
        assert client.get() == "r"  # within the window: replica only
        assert client.calls == ["http://p", "http://r", "http://r"]
        clock.advance(6.0)
        assert client.get() == "p"  # window lapsed: primary re-probed

    def test_prefers_freshest_replica_when_primary_down(self):
        clock = FakeClock()
        client = ScriptedClient({"http://p": [down("http://p")],
                                 "http://r1": [(3, "stale")],
                                 "http://r2": [(9, "fresh")]},
                                clock=clock)
        client._endpoints[1].last_generation = 3
        client._endpoints[2].last_generation = 9
        assert client.get() == "fresh"
        assert client.calls == ["http://p", "http://r2"]

    def test_503_demotes_and_fails_over(self):
        client = ScriptedClient(
            {"http://p": [ServiceError("stale", status=503,
                                       retry_after=1.0)],
             "http://r": [(8, "ok")]},
            clock=FakeClock())
        assert client.get() == "ok"
        assert client.sleeps == []  # a healthy target answered: no backoff

    def test_429_backs_off_honoring_retry_after(self):
        policy = RetryPolicy(attempts=3, base_seconds=0.05,
                             multiplier=4.0, max_seconds=0.5)
        client = ScriptedClient(
            {"http://p": [ServiceError("shed", status=429, retry_after=2.0),
                          ServiceError("shed", status=429, retry_after=0.0),
                          (8, "ok")]},
            clock=FakeClock(), retry_policy=policy)
        assert client.get() == "ok"
        assert len(client.sleeps) == 2
        # Retry-After floors the jittered delay but the cap still holds.
        assert client.sleeps[0] == policy.max_seconds
        assert 0.0 <= client.sleeps[1] <= policy.max_seconds

    def test_exhausted_backoff_surfaces_the_429(self):
        client = ScriptedClient(
            {"http://p": [ServiceError("shed", status=429)]},
            clock=FakeClock(),
            retry_policy=RetryPolicy(attempts=2, base_seconds=0.01,
                                     multiplier=2.0, max_seconds=0.1))
        with pytest.raises(ServiceError) as excinfo:
            client.get()
        assert excinfo.value.status == 429
        assert len(client.sleeps) == 1

    def test_no_retry_policy_surfaces_429_immediately(self):
        # The workload replay driver counts shed requests; backoff
        # would hide them.
        client = ScriptedClient(
            {"http://p": [ServiceError("shed", status=429)]},
            clock=FakeClock(), retry_policy=None)
        with pytest.raises(ServiceError):
            client.get()
        assert client.calls == ["http://p"]
        assert client.sleeps == []

    def test_hard_errors_raise_at_once(self):
        client = ScriptedClient(
            {"http://p": [ServiceError("bad request", status=400)],
             "http://r": [(8, "never")]},
            clock=FakeClock())
        with pytest.raises(ServiceError, match="bad request"):
            client.get()
        assert client.calls == ["http://p"]

    def test_all_down_raises_transport_error(self):
        client = ScriptedClient({"http://p": [down("http://p")],
                                 "http://r": [down("http://r")]},
                                clock=FakeClock(), retry_policy=None)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.get()


class TestRetryAfterParsing:
    def test_parse_forms(self):
        from repro.service.client import _parse_retry_after
        assert _parse_retry_after(None) == 0.0
        assert _parse_retry_after("2") == 2.0
        assert _parse_retry_after("0.5") == 0.5
        assert _parse_retry_after("-3") == 0.0
        assert _parse_retry_after("Wed, 21 Oct 2026") == 0.0


# -- replicated serving over real sockets ------------------------------------

@pytest.fixture
def replicated_pair(tmp_path):
    """A primary and a replica server over one file-backed repository."""
    import urllib.request

    from repro.core.config import SchemrConfig
    from repro.repository.store import SchemaRepository
    from repro.service.server import SchemrServer
    from tests.conftest import (build_clinic_schema,
                                build_conservation_schema, build_hr_schema)

    db = str(tmp_path / "repo.db")
    repo = SchemaRepository(db)
    repo.add_schema(build_clinic_schema())
    repo.add_schema(build_hr_schema())
    repo.add_schema(build_conservation_schema())
    primary = SchemrServer(repo, port=0, config=SchemrConfig(
        telemetry_enabled=True, segment_dir=str(tmp_path / "psegs")))
    primary.start()
    replica_repo = SchemaRepository(db)
    replica = SchemrServer(replica_repo, port=0, config=SchemrConfig(
        telemetry_enabled=True, segment_dir=str(tmp_path / "rsegs"),
        replicate_from=primary.base_url, replica_poll_seconds=0.05))
    replica.start()
    yield primary, replica, urllib.request
    replica.stop()
    primary.stop()
    replica_repo.close()
    repo.close()


class TestReplicatedServing:
    def test_replica_serves_identical_results(self, replicated_pair):
        primary, replica, _ = replicated_pair
        from_primary = SchemrClient(primary.base_url).search("patient height")
        from_replica = SchemrClient(replica.base_url).search("patient height")
        assert [r.schema_id for r in from_primary] == \
            [r.schema_id for r in from_replica]
        assert from_primary[0].score == from_replica[0].score

    def test_replication_endpoints(self, replicated_pair):
        primary, _, urllib_request = replicated_pair
        with urllib_request.urlopen(
                primary.base_url + "/replication/manifest") as response:
            manifest = json.loads(response.read())
        validate_replication_manifest(manifest)
        entry = manifest["dirs"][0]["manifest"]["segments"][0]
        with urllib_request.urlopen(
                f"{primary.base_url}/replication/segment/"
                f"{entry['file']}") as response:
            blob = response.read()
        assert len(blob) == entry["bytes"]

    def test_segment_endpoint_rejects_traversal(self, replicated_pair):
        import urllib.error
        primary, _, urllib_request = replicated_pair
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib_request.urlopen(
                primary.base_url + "/replication/segment/..%2FMANIFEST.json")
        assert excinfo.value.code == 400

    def test_readyz_and_generation_stamps(self, replicated_pair):
        primary, replica, urllib_request = replicated_pair
        for server in (primary, replica):
            with urllib_request.urlopen(server.base_url + "/readyz") as r:
                assert r.status == 200
        client = SchemrClient(replica.base_url)
        client.search("patient height")
        assert client.last_generation == 3  # three schemas committed

    def test_failover_when_primary_dies(self, replicated_pair):
        primary, replica, _ = replicated_pair
        client = SchemrClient([primary.base_url, replica.base_url],
                              retry_policy=None)
        assert client.search("patient height")
        assert client.last_endpoint == primary.base_url
        primary.stop()
        results = client.search("patient height")
        assert results  # zero empty responses across the failover
        assert client.last_endpoint == replica.base_url


class TestReplicaFollowsChangeLog:
    def test_updated_schema_is_not_served_from_a_stale_profile(
            self, tmp_path):
        """A replica shares the primary's database but keeps its own
        profile store: adopting a pulled generation must drop the
        profiles of every schema changed since the last one."""
        import time

        from repro.core.config import SchemrConfig
        from repro.corpus.domains import domain_by_name
        from repro.corpus.generator import CorpusGenerator
        from repro.repository.store import SchemaRepository
        from repro.service.server import SchemrServer

        db = str(tmp_path / "repo.db")
        generator = CorpusGenerator(seed=13)
        writer = SchemaRepository(db)
        for generated in generator.stream(120, include_junk=True):
            writer.add_schema(generated.schema)
        primary_repo = SchemaRepository(db)
        primary = primary_repo.engine(config=SchemrConfig(
            segment_dir=str(tmp_path / "psegs"), candidate_pool=40))
        replica_repo = SchemaRepository(db)
        replica = SchemrServer(replica_repo, config=SchemrConfig(
            segment_dir=str(tmp_path / "rsegs"), candidate_pool=40,
            replicate_from=str(tmp_path / "psegs"),
            replica_poll_seconds=0.05))
        keywords = ["patient", "name", "address"]
        try:
            with replica.running():
                page = primary.search(keywords=keywords)
                assert replica.engine.search(keywords=keywords) == page
                replacement = generator.generate_from_domain(
                    domain_by_name("healthcare"), ("patient",)).schema
                replacement.schema_id = page[0].schema_id
                writer.update_schema(replacement)
                primary_repo.indexer().refresh()
                cursor = primary_repo.indexer().last_change_id
                deadline = time.monotonic() + 10.0
                while (replica.replica_syncer.generation < cursor
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
                assert replica.replica_syncer.generation == cursor
                page = primary.search(keywords=keywords)
                # Still a candidate, so a stale profile would score it.
                assert replacement.schema_id in {r.schema_id for r in page}
                assert replica.engine.search(keywords=keywords) == page
        finally:
            primary.close()
            replica_repo.close()
            primary_repo.close()
            writer.close()


class TestReplicaServeOpensNoDatabase:
    def test_serve_replica_on_a_missing_database_path(self, tmp_path):
        """``schemr serve DB --replicate-from SRC`` reads the segments it
        pulls and never the database: DB need not exist, and no file
        appears there."""
        import os
        import signal
        import subprocess
        import sys
        import urllib.request
        from pathlib import Path

        import repro
        from repro.repository.store import SchemaRepository

        from tests.conftest import build_clinic_schema, build_hr_schema

        with SchemaRepository.in_memory() as repo:
            repo.add_schema(build_clinic_schema())
            repo.add_schema(build_hr_schema())
            repo.indexer(segment_dir=str(tmp_path / "psegs")).refresh()
        missing = tmp_path / "nowhere" / "repo.db"
        env = dict(os.environ, PYTHONPATH=str(
            Path(repro.__file__).resolve().parents[1]))
        server = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cli", "serve", str(missing),
             "--port", "0", "--replicate-from", str(tmp_path / "psegs"),
             "--segment-dir", str(tmp_path / "rsegs"),
             "--replica-poll", "3600"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env)
        try:
            line = server.stdout.readline()
            assert "listening on" in line, server.stderr.read()
            base_url = line.split()[-1]
            with urllib.request.urlopen(
                    base_url + "/search?keywords=patient+height",
                    timeout=10) as response:
                body = response.read().decode()
            assert "clinic_emr" in body
        finally:
            server.send_signal(signal.SIGTERM)
            server.communicate(timeout=10)
        assert server.returncode == 0
        assert not missing.exists()
        assert not missing.parent.exists()
