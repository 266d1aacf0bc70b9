"""The schema repository: Schemr's storage substrate.

The original system sits on Yggdrasil, OpenII's schema repository; this
package provides the equivalent on SQLite: durable schema storage with
a change log, an offline indexer that refreshes the text index "at
scheduled intervals" from that change log, and the collaborative
features the paper plans (ratings, comments, usage statistics).  The
meta-learner's training data, recorded search history, is the JSONL
:class:`~repro.telemetry.history.SearchHistorySink`.
"""

from repro.repository.collab import (
    Comment,
    Rating,
    UsageStats,
    add_comment,
    average_rating,
    comments_for,
    rate_schema,
    record_click,
    record_impressions,
    usage_stats,
)
from repro.repository.exporter import export_ddl, export_entity_ddl, export_xsd
from repro.repository.indexer import RepositoryIndexer
from repro.repository.store import SchemaRepository

__all__ = [
    "export_ddl",
    "export_entity_ddl",
    "export_xsd",
    "Comment",
    "Rating",
    "RepositoryIndexer",
    "SchemaRepository",
    "UsageStats",
    "add_comment",
    "average_rating",
    "comments_for",
    "rate_schema",
    "record_click",
    "record_impressions",
    "usage_stats",
]
