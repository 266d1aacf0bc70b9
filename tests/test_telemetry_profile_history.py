"""Unit tests for query profiles, the slow-query log, and the JSONL
search-history sink."""

import json

import pytest

from repro.core.results import SearchResult
from repro.errors import RepositoryError
from repro.telemetry.history import (HISTORY_SCHEMA_VERSION, HistoryRecord,
                                     SearchHistorySink)
from repro.telemetry.profile import QueryProfile, QueryProfileLog


def _profile(seconds: float, terms=("patient",)) -> QueryProfile:
    return QueryProfile(query_terms=tuple(terms), total_seconds=seconds)


class TestQueryProfileLog:
    def test_threshold_splits_slow_from_fast(self):
        log = QueryProfileLog(slow_threshold_seconds=0.1)
        assert log.record(_profile(0.05)) is False
        assert log.record(_profile(0.1)) is True  # >= threshold is slow
        assert log.record(_profile(0.5)) is True
        assert log.total_count == 3
        assert log.slow_count == 2
        assert len(log.recent()) == 3
        assert [p.total_seconds for p in log.slow()] == [0.5, 0.1]

    def test_rings_are_bounded_counts_are_not(self):
        log = QueryProfileLog(buffer_size=2, slow_threshold_seconds=0.01)
        for i in range(5):
            log.record(_profile(1.0, terms=(f"q{i}",)))
        assert log.total_count == 5
        assert log.slow_count == 5
        assert [p.query_terms[0] for p in log.recent()] == ["q4", "q3"]
        assert len(log.slow()) == 2

    def test_recent_limit_and_clear(self):
        log = QueryProfileLog()
        log.record(_profile(0.01))
        log.record(_profile(0.02))
        assert len(log.recent(limit=1)) == 1
        log.clear()
        assert log.recent() == []
        assert log.total_count == 2  # counters survive clear

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="buffer_size"):
            QueryProfileLog(buffer_size=0)
        with pytest.raises(ValueError, match="positive"):
            QueryProfileLog(slow_threshold_seconds=0)

    def test_profile_to_dict_round_trips_fields(self):
        profile = QueryProfile(
            query_terms=("patient", "height"), total_seconds=0.2,
            phase_seconds={"schema_matching": 0.1}, candidate_count=4,
            matched_count=4, result_count=2, top_n=10, offset=0,
            strategy="pruned", cache_hit=True, pruned_early=True,
            docs_scored=4, empty_reason=None)
        data = profile.to_dict()
        assert data["query_terms"] == ["patient", "height"]
        assert data["strategy"] == "pruned"
        assert data["cache_hit"] is True
        assert data["phase_seconds"] == {"schema_matching": 0.1}
        json.dumps(data)  # must be JSON-serializable as-is


def _result(schema_id: int, name: str, score: float) -> SearchResult:
    return SearchResult(schema_id=schema_id, name=name, score=score,
                        match_count=1, entity_count=1, attribute_count=2)


class TestSearchHistorySink:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "history.jsonl"
        with SearchHistorySink(path) as sink:
            sink.record(["patient", "height"],
                        [_result(1, "clinic", 0.9), _result(2, "hr", 0.4)],
                        total_seconds=0.012)
            sink.record(["salary"], [], total_seconds=0.003)
            assert sink.records_written == 2
        records = SearchHistorySink.load(path)
        assert len(records) == 2
        first = records[0]
        assert first.query_terms == ("patient", "height")
        assert first.total_seconds == pytest.approx(0.012)
        assert first.results[0] == {"schema_id": 1, "name": "clinic",
                                    "score": 0.9, "rank": 1}
        assert first.results[1]["rank"] == 2
        assert records[1].results == ()

    def test_appends_across_sink_instances(self, tmp_path):
        path = tmp_path / "history.jsonl"
        with SearchHistorySink(path) as sink:
            sink.record(["a"], [])
        with SearchHistorySink(path) as sink:
            sink.record(["b"], [])
        terms = [r.query_terms[0] for r in SearchHistorySink.read(path)]
        assert terms == ["a", "b"]

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        path = tmp_path / "history.jsonl"
        with SearchHistorySink(path) as sink:
            sink.record(["ok"], [])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"recorded_at": 1.0, "query_te')  # crash mid-write
        records = SearchHistorySink.load(path)
        assert [r.query_terms for r in records] == [("ok",)]

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "history.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("not json\n")
            handle.write('{"recorded_at": 1.0, "query_terms": [],'
                         ' "results": []}\n')
        with pytest.raises(RepositoryError, match="corrupt history line 1"):
            SearchHistorySink.load(path)

    def test_valid_json_invalid_record_raises(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text('{"recorded_at": "never"}\n', encoding="utf-8")
        with pytest.raises(RepositoryError, match="malformed"):
            SearchHistorySink.load(path)

    def test_missing_file_reads_empty(self, tmp_path):
        assert SearchHistorySink.load(tmp_path / "absent.jsonl") == []

    def test_record_after_close_raises(self, tmp_path):
        sink = SearchHistorySink(tmp_path / "h.jsonl")
        sink.close()
        sink.close()  # idempotent
        with pytest.raises(RepositoryError, match="closed"):
            sink.record(["x"], [])

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "h.jsonl"
        with SearchHistorySink(path) as sink:
            sink.record(["x"], [])
        assert path.exists()

    def test_flush_every_validated(self, tmp_path):
        with pytest.raises(ValueError, match="flush_every"):
            SearchHistorySink(tmp_path / "h.jsonl", flush_every=0)

    def test_from_dict_defaults_total_seconds(self):
        record = HistoryRecord.from_dict(
            {"recorded_at": 1.0, "query_terms": ["a"], "results": []})
        assert record.total_seconds == 0.0


class TestHistorySchemaVersion:
    def test_writer_stamps_current_version(self, tmp_path):
        path = tmp_path / "h.jsonl"
        with SearchHistorySink(path) as sink:
            sink.record(["a"], [])
        line = json.loads(path.read_text(encoding="utf-8"))
        assert line["schema_version"] == HISTORY_SCHEMA_VERSION

    def test_versionless_legacy_line_reads_as_version_1(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text('{"recorded_at": 1.0, "query_terms": ["a"],'
                        ' "results": []}\n', encoding="utf-8")
        (record,) = SearchHistorySink.load(path)
        assert record.schema_version == 1
        assert record.query_terms == ("a",)

    def test_future_version_raises_loudly(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text('{"schema_version": 99, "recorded_at": 1.0,'
                        ' "query_terms": [], "results": []}\n',
                        encoding="utf-8")
        with pytest.raises(RepositoryError, match="schema_version 99"):
            SearchHistorySink.load(path)

    def test_clicked_ids_round_trip(self, tmp_path):
        path = tmp_path / "h.jsonl"
        with SearchHistorySink(path) as sink:
            sink.record(["a"], [_result(1, "x", 0.9), _result(2, "y", 0.5)],
                        clicked_ids={2})
        (record,) = SearchHistorySink.load(path)
        assert record.clicked_ids == {2}
        assert "clicked" not in record.results[0]
        assert record.results[1]["clicked"] is True

    def test_recorded_at_override_beats_wall_clock(self, tmp_path):
        sink = SearchHistorySink(tmp_path / "h.jsonl",
                                 wall_clock=lambda: 555.0)
        with sink:
            record = sink.record(["a"], [], recorded_at=7.5)
        assert record.recorded_at == 7.5


class TestHistoryRotation:
    def test_rotates_past_max_bytes(self, tmp_path):
        path = tmp_path / "h.jsonl"
        with SearchHistorySink(path, max_bytes=200) as sink:
            for i in range(8):
                sink.record([f"term{i}"], [])
            assert sink.rotations >= 1
        rotated = sorted(p.name for p in tmp_path.iterdir())
        assert "h.jsonl" in rotated
        assert any(name.startswith("h.jsonl.") for name in rotated)

    def test_read_streams_rotation_chain_oldest_first(self, tmp_path):
        path = tmp_path / "h.jsonl"
        with SearchHistorySink(path, max_bytes=120) as sink:
            for i in range(10):
                sink.record([f"t{i:02d}"], [])
        terms = [r.query_terms[0] for r in SearchHistorySink.read(path)]
        assert terms == [f"t{i:02d}" for i in range(10)]

    def test_max_rotated_files_prunes_oldest(self, tmp_path):
        path = tmp_path / "h.jsonl"
        with SearchHistorySink(path, max_bytes=80,
                               max_rotated_files=2) as sink:
            for i in range(12):
                sink.record([f"t{i}"], [])
        generations = [p for p in tmp_path.iterdir()
                       if p.name.startswith("h.jsonl.")]
        assert 1 <= len(generations) <= 2

    def test_torn_line_tolerated_per_rotated_file(self, tmp_path):
        path = tmp_path / "h.jsonl"
        with SearchHistorySink(path, max_bytes=80) as sink:
            for i in range(4):
                sink.record([f"t{i}"], [])
        with open(f"{path}.1", "a", encoding="utf-8") as handle:
            handle.write('{"torn')
        records = SearchHistorySink.load(path)
        assert len(records) == 4

    def test_rotation_config_validated(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            SearchHistorySink(tmp_path / "h.jsonl", max_bytes=0)
        with pytest.raises(ValueError, match="max_rotated_files"):
            SearchHistorySink(tmp_path / "h.jsonl", max_rotated_files=0)

    def test_config_wires_max_bytes_through_telemetry(self, tmp_path):
        from repro.core.config import SchemrConfig
        from repro.telemetry import Telemetry
        config = SchemrConfig(telemetry_enabled=True,
                              history_path=str(tmp_path / "h.jsonl"),
                              history_max_bytes=100)
        telemetry = Telemetry.from_config(config)
        for i in range(6):
            telemetry.history.record([f"t{i}"], [])
        telemetry.close()
        assert telemetry.history.rotations >= 1

    def test_history_max_bytes_config_validated(self):
        from repro.core.config import SchemrConfig
        from repro.errors import QueryError
        with pytest.raises(QueryError, match="history_max_bytes"):
            SchemrConfig(history_max_bytes=0)


class TestHistoryConcurrentWrites:
    def test_hammer_no_torn_or_interleaved_lines(self, tmp_path):
        """16 threads x 50 records: every line must parse cleanly and
        every record must arrive intact (the line-atomicity contract)."""
        import threading
        path = tmp_path / "h.jsonl"
        threads_n, per_thread = 16, 50
        with SearchHistorySink(path, flush_every=7) as sink:
            def writer(worker: int) -> None:
                for i in range(per_thread):
                    sink.record([f"w{worker}", f"q{i}"],
                                [_result(worker, f"s{worker}", 0.5)],
                                clicked_ids={worker} if i % 2 else None)
            pool = [threading.Thread(target=writer, args=(w,))
                    for w in range(threads_n)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join()
        # Parse raw lines first: interleaved writes would corrupt JSON.
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == threads_n * per_thread
        for line in lines:
            json.loads(line)
        records = SearchHistorySink.load(path)
        per_worker: dict[str, int] = {}
        for record in records:
            per_worker[record.query_terms[0]] = \
                per_worker.get(record.query_terms[0], 0) + 1
        assert per_worker == {f"w{w}": per_thread for w in range(threads_n)}

    def test_hammer_with_rotation_loses_nothing(self, tmp_path):
        import threading
        path = tmp_path / "h.jsonl"
        threads_n, per_thread = 8, 40
        with SearchHistorySink(path, max_bytes=2000) as sink:
            def writer(worker: int) -> None:
                for i in range(per_thread):
                    sink.record([f"w{worker}", f"q{i}"], [])
            pool = [threading.Thread(target=writer, args=(w,))
                    for w in range(threads_n)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join()
            assert sink.rotations >= 1
        records = SearchHistorySink.load(path)
        assert len(records) == threads_n * per_thread


class TestHistoryInjectableWallClock:
    def test_record_stamps_with_injected_clock(self, tmp_path):
        from repro.telemetry.history import SearchHistorySink
        ticks = iter([100.0, 200.0])
        sink = SearchHistorySink(tmp_path / "h.jsonl",
                                 wall_clock=lambda: next(ticks))
        with sink:
            first = sink.record(["a"], [])
            second = sink.record(["b"], [])
        assert (first.recorded_at, second.recorded_at) == (100.0, 200.0)
        loaded = SearchHistorySink.load(tmp_path / "h.jsonl")
        assert [r.recorded_at for r in loaded] == [100.0, 200.0]

    def test_telemetry_facade_threads_wall_clock_through(self, tmp_path):
        from repro.telemetry import Telemetry
        telemetry = Telemetry(
            enabled=True,
            history_path=tmp_path / "h.jsonl",
            wall_clock=lambda: 42.0)
        record = telemetry.history.record(["q"], [])
        telemetry.close()
        assert record.recorded_at == 42.0
        assert telemetry.wall_clock() == 42.0
