"""Unit tests for the repository's collaboration features."""

import pytest

from repro.errors import RepositoryError
from repro.repository.collab import (
    add_comment,
    average_rating,
    comments_for,
    rate_schema,
    record_click,
    record_impressions,
    usage_stats,
)
from repro.repository.store import SchemaRepository

from tests.conftest import build_clinic_schema


@pytest.fixture
def repo_with_schema():
    repo = SchemaRepository.in_memory()
    schema_id = repo.add_schema(build_clinic_schema())
    yield repo, schema_id
    repo.close()


class TestRatings:
    def test_rate_and_average(self, repo_with_schema):
        repo, schema_id = repo_with_schema
        rate_schema(repo, schema_id, "alice", 5)
        rate_schema(repo, schema_id, "bob", 3)
        assert average_rating(repo, schema_id) == pytest.approx(4.0)

    def test_rerating_overwrites(self, repo_with_schema):
        repo, schema_id = repo_with_schema
        rate_schema(repo, schema_id, "alice", 5)
        rate_schema(repo, schema_id, "alice", 1)
        assert average_rating(repo, schema_id) == pytest.approx(1.0)

    def test_unrated_returns_none(self, repo_with_schema):
        repo, schema_id = repo_with_schema
        assert average_rating(repo, schema_id) is None

    def test_stars_range_enforced(self, repo_with_schema):
        repo, schema_id = repo_with_schema
        with pytest.raises(RepositoryError):
            rate_schema(repo, schema_id, "alice", 6)
        with pytest.raises(RepositoryError):
            rate_schema(repo, schema_id, "alice", 0)

    def test_empty_user_rejected(self, repo_with_schema):
        repo, schema_id = repo_with_schema
        with pytest.raises(RepositoryError):
            rate_schema(repo, schema_id, " ", 3)

    def test_unknown_schema_rejected(self, repo_with_schema):
        repo, _ = repo_with_schema
        with pytest.raises(RepositoryError):
            rate_schema(repo, 999, "alice", 3)


class TestComments:
    def test_comments_accumulate_in_order(self, repo_with_schema):
        repo, schema_id = repo_with_schema
        add_comment(repo, schema_id, "alice", "nice patient model")
        add_comment(repo, schema_id, "bob", "needs units on height")
        comments = comments_for(repo, schema_id)
        assert [c.body for c in comments] == \
            ["nice patient model", "needs units on height"]

    def test_empty_body_rejected(self, repo_with_schema):
        repo, schema_id = repo_with_schema
        with pytest.raises(RepositoryError):
            add_comment(repo, schema_id, "alice", "   ")


class TestUsageStats:
    def test_impressions_and_clicks(self, repo_with_schema):
        repo, schema_id = repo_with_schema
        record_impressions(repo, [schema_id, schema_id])
        record_click(repo, schema_id)
        stats = usage_stats(repo, schema_id)
        assert stats.impressions == 2
        assert stats.clicks == 1
        assert stats.click_through_rate == pytest.approx(0.5)

    def test_unseen_schema_zero_stats(self, repo_with_schema):
        repo, schema_id = repo_with_schema
        stats = usage_stats(repo, schema_id)
        assert stats.impressions == 0
        assert stats.click_through_rate == 0.0
