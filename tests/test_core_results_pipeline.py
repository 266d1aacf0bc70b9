"""Unit tests for result formatting and pipeline tracing."""

import time

import pytest

from repro.core.results import ElementMatch, SearchResult, format_result_table
from repro.telemetry import QueryProfile


def make_result(name: str = "clinic", score: float = 0.5,
                description: str = "desc") -> SearchResult:
    return SearchResult(schema_id=1, name=name, score=score, match_count=3,
                        entity_count=2, attribute_count=8,
                        description=description)


class TestFormatResultTable:
    def test_header_and_separator(self):
        table = format_result_table([make_result()])
        lines = table.splitlines()
        assert "Name" in lines[0]
        assert "Score" in lines[0]
        assert set(lines[1]) <= {"-", " "}

    def test_figure2_columns_present(self):
        """Figure 2: name, score, matches, entities, attributes,
        description columns."""
        header = format_result_table([]).splitlines()[0].lower()
        for column in ("name", "score", "matches", "entities",
                       "attributes", "description"):
            assert column in header

    def test_rows_numbered(self):
        table = format_result_table([make_result("a"), make_result("b")])
        rows = table.splitlines()[2:]
        assert rows[0].startswith("1 ")
        assert rows[1].startswith("2 ")

    def test_long_description_truncated(self):
        result = make_result(description="x" * 100)
        table = format_result_table([result], max_description=20)
        assert "x" * 21 not in table
        assert "..." in table

    def test_score_formatting(self):
        table = format_result_table([make_result(score=0.123456)])
        assert "0.1235" in table

    def test_empty_results(self):
        table = format_result_table([])
        assert len(table.splitlines()) == 2  # header + separator


class TestSearchResultHelpers:
    def test_top_matches_limit_and_order(self):
        result = make_result()
        result.element_matches = [
            ElementMatch("q", "e1", 0.2),
            ElementMatch("q", "e2", 0.9),
            ElementMatch("q", "e3", 0.5),
        ]
        top = result.top_matches(2)
        assert [m.element_path for m in top] == ["e2", "e3"]


class TestPipelineTrace:
    """Phase timing lives on the search's one QueryProfile."""

    def test_timed_phase_records_duration(self):
        profile = QueryProfile()
        with profile.timed_phase("work") as phase:
            phase.items_in = 10
            time.sleep(0.01)
            phase.items_out = 5
        assert profile.phase_seconds["work"] >= 0.01
        assert profile.phase_items["work"] == (10, 5)

    def test_timed_phase_records_when_the_block_raises(self):
        profile = QueryProfile()
        with pytest.raises(RuntimeError):
            with profile.timed_phase("work") as phase:
                phase.items_in = 3
                raise RuntimeError("boom")
        assert profile.phase_items["work"] == (3, 0)
        assert "work" in profile.phase_seconds

    def test_total_seconds_sums(self):
        profile = QueryProfile()
        with profile.timed_phase("a"):
            pass
        with profile.timed_phase("b"):
            pass
        assert list(profile.phase_seconds) == ["a", "b"]
        assert f"{sum(profile.phase_seconds.values()):.5f}" in \
            profile.summary().splitlines()[-1]

    def test_missing_phase_raises(self):
        with pytest.raises(KeyError):
            QueryProfile().phase_items["ghost"]

    def test_summary_contains_every_phase(self):
        profile = QueryProfile()
        with profile.timed_phase("alpha"):
            pass
        summary = profile.summary()
        assert "alpha" in summary
        assert "total" in summary
