"""SQLite-backed schema repository.

Schemas are stored as validated JSON payloads with searchable metadata
columns, and every mutation is appended to a change log so the offline
indexer can refresh incrementally.  The repository is the integration
point of the whole system: it owns the inverted index (via
:class:`~repro.repository.indexer.RepositoryIndexer`) and hands out
ready-to-use :class:`~repro.core.engine.SchemrEngine` instances.
"""

from __future__ import annotations

import json
import logging
import sqlite3
import threading
import time
from pathlib import Path
from typing import Callable, Iterator, TypeVar

from repro.core.config import SchemrConfig
from repro.core.engine import SchemrEngine
from repro.errors import (RepositoryError, SchemaError, SchemaNotFound,
                          ServiceError)
from repro.matching.ensemble import MatcherEnsemble
from repro.matching.profile import ProfileStore
from repro.model.schema import Schema
from repro.parsers.ddl import parse_ddl
from repro.parsers.webtable import schema_from_webtable
from repro.parsers.xsd import parse_xsd
from repro.resilience.faults import FAULTS
from repro.resilience.retry import RetryPolicy, retry_transient

logger = logging.getLogger(__name__)

_T = TypeVar("_T")

_SCHEMA_SQL = """
CREATE TABLE IF NOT EXISTS schemas (
    schema_id   INTEGER PRIMARY KEY AUTOINCREMENT,
    name        TEXT NOT NULL,
    description TEXT NOT NULL DEFAULT '',
    source      TEXT NOT NULL DEFAULT '',
    payload     TEXT NOT NULL,
    created_at  REAL NOT NULL,
    updated_at  REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS changelog (
    change_id   INTEGER PRIMARY KEY AUTOINCREMENT,
    schema_id   INTEGER NOT NULL,
    op          TEXT NOT NULL CHECK (op IN ('add', 'update', 'delete')),
    changed_at  REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS search_history (
    entry_id    INTEGER PRIMARY KEY AUTOINCREMENT,
    query_terms TEXT NOT NULL,
    schema_id   INTEGER NOT NULL,
    relevant    INTEGER NOT NULL,
    features    TEXT NOT NULL DEFAULT '{}',
    searched_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS ratings (
    rating_id   INTEGER PRIMARY KEY AUTOINCREMENT,
    schema_id   INTEGER NOT NULL,
    user        TEXT NOT NULL,
    stars       INTEGER NOT NULL CHECK (stars BETWEEN 1 AND 5),
    rated_at    REAL NOT NULL,
    UNIQUE (schema_id, user)
);
CREATE TABLE IF NOT EXISTS comments (
    comment_id  INTEGER PRIMARY KEY AUTOINCREMENT,
    schema_id   INTEGER NOT NULL,
    user        TEXT NOT NULL,
    body        TEXT NOT NULL,
    commented_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS usage_stats (
    schema_id   INTEGER PRIMARY KEY,
    impressions INTEGER NOT NULL DEFAULT 0,
    clicks      INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS idx_changelog_change ON changelog (change_id);
CREATE INDEX IF NOT EXISTS idx_history_schema ON search_history (schema_id);
"""


class SchemaRepository:
    """Durable store of schemas plus the system integration points."""

    def __init__(self, path: str | Path = ":memory:", *,
                 busy_timeout_seconds: float = 5.0,
                 retry_policy: RetryPolicy | None = None) -> None:
        self._path = str(path)
        # The HTTP service and the scheduled indexer touch the repository
        # from worker threads; Python's sqlite3 is compiled serialized
        # (threadsafety == 3), so sharing one connection is safe, and the
        # lock below keeps multi-statement operations atomic.
        self._conn = sqlite3.connect(self._path, check_same_thread=False)
        self._conn.row_factory = sqlite3.Row
        self._lock = threading.RLock()
        # Concurrent reader/writer traffic (a second process, an online
        # backup) should queue, not instantly raise "database is
        # locked": busy_timeout makes sqlite wait for the lock, and WAL
        # lets readers proceed under a writer.  WAL needs a real file —
        # in-memory databases report "memory" and that is fine.
        self._conn.execute(
            f"PRAGMA busy_timeout = {int(busy_timeout_seconds * 1000)}")
        if self._path != ":memory:":
            try:
                self._conn.execute("PRAGMA journal_mode=WAL")
            except sqlite3.OperationalError as exc:  # pragma: no cover
                # Network filesystems can refuse WAL; the repository
                # still works in the default rollback mode.
                logger.warning("could not enable WAL mode: %s", exc)
        #: Backoff policy for transient "database is locked" errors that
        #: survive busy_timeout (e.g. a writer in another process
        #: holding the lock past it).
        self._retry_policy = retry_policy or RetryPolicy()
        self._retry_count = 0
        self._version = 0
        self._indexer: "RepositoryIndexer | None" = None
        self._profile_store: ProfileStore | None = None
        self._with_retry(self._init_tables)

    def _init_tables(self) -> None:
        self._conn.executescript(_SCHEMA_SQL)
        self._conn.commit()

    def _with_retry(self, fn: Callable[[], _T]) -> _T:
        """Run a sqlite operation, retrying transient lock errors.

        Rolls back before each retry so a failure mid-transaction
        cannot leave half a multi-statement operation behind (each
        retried ``fn`` is written to be idempotent from a clean
        transaction).
        """
        def before_retry(attempt: int, exc: BaseException) -> None:
            self._retry_count += 1
            try:
                self._conn.rollback()
            except sqlite3.Error:  # pragma: no cover - best effort
                pass
        return retry_transient(fn, self._retry_policy,
                               on_retry=before_retry)

    @property
    def retry_count(self) -> int:
        """Transient-lock retries performed (telemetry feed)."""
        return self._retry_count

    @property
    def version(self) -> int:  # lint: unlocked (GIL-atomic int read; a search must not queue behind a writer's transaction)
        """Bumped after every committed in-process schema write (add,
        update, delete).  Writes through another handle or process
        reach searches through the indexer's refresh instead."""
        return self._version

    @classmethod
    def in_memory(cls) -> "SchemaRepository":
        """A throwaway repository for tests, examples and benches."""
        return cls(":memory:")

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "SchemaRepository":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- schema CRUD -------------------------------------------------------

    def add_schema(self, schema: Schema) -> int:
        """Store a schema; returns the assigned id (also set on the object)."""
        now = time.time()
        payload = json.dumps(schema.to_dict())

        def insert() -> int:
            with self._lock:
                FAULTS.hit("store.add_schema")
                cursor = self._conn.execute(
                    "INSERT INTO schemas (name, description, source, "
                    "payload, created_at, updated_at) "
                    "VALUES (?, ?, ?, ?, ?, ?)",
                    (schema.name, schema.description, schema.source,
                     payload, now, now))
                schema_id = cursor.lastrowid
                assert schema_id is not None
                schema.schema_id = schema_id
                # Rewrite payload so the stored copy knows its own id.
                self._conn.execute(
                    "UPDATE schemas SET payload = ? WHERE schema_id = ?",
                    (json.dumps(schema.to_dict()), schema_id))
                self._log_change(schema_id, "add", now)
                self._conn.commit()
                self._version += 1
                return schema_id

        return self._with_retry(insert)

    def update_schema(self, schema: Schema) -> None:
        """Replace a stored schema (id must be set and present)."""
        if schema.schema_id is None:
            raise RepositoryError("schema has no id; use add_schema")
        now = time.time()

        def update() -> None:
            with self._lock:
                cursor = self._conn.execute(
                    "UPDATE schemas SET name = ?, description = ?, "
                    "source = ?, payload = ?, updated_at = ? "
                    "WHERE schema_id = ?",
                    (schema.name, schema.description, schema.source,
                     json.dumps(schema.to_dict()), now, schema.schema_id))
                if cursor.rowcount == 0:
                    raise RepositoryError(
                        f"schema {schema.schema_id} is not in the "
                        "repository")
                self._log_change(schema.schema_id, "update", now)
                self._conn.commit()
                self._version += 1

        self._with_retry(update)
        if self._profile_store is not None:
            self._profile_store.invalidate(schema.schema_id)

    def delete_schema(self, schema_id: int) -> None:
        def delete() -> None:
            with self._lock:
                cursor = self._conn.execute(
                    "DELETE FROM schemas WHERE schema_id = ?", (schema_id,))
                if cursor.rowcount == 0:
                    raise RepositoryError(
                        f"schema {schema_id} is not in the repository")
                self._log_change(schema_id, "delete", time.time())
                self._conn.commit()
                self._version += 1

        self._with_retry(delete)
        if self._profile_store is not None:
            self._profile_store.invalidate(schema_id)

    def get_schema(self, schema_id: int) -> Schema:
        def fetch():
            FAULTS.hit("store.get_schema")
            return self._conn.execute(
                "SELECT payload FROM schemas WHERE schema_id = ?",
                (schema_id,)).fetchone()

        row = self._with_retry(fetch)
        if row is None:
            raise SchemaNotFound(
                f"schema {schema_id} is not in the repository")
        try:
            return Schema.from_dict(json.loads(row["payload"]))
        except (json.JSONDecodeError, SchemaError) as exc:
            raise RepositoryError(
                f"stored payload of schema {schema_id} is corrupt: "
                f"{exc}") from exc

    def has_schema(self, schema_id: int) -> bool:
        row = self._conn.execute(
            "SELECT 1 FROM schemas WHERE schema_id = ?",
            (schema_id,)).fetchone()
        return row is not None

    def iter_schemas(self, skip_corrupt: bool = False) -> Iterator[Schema]:
        """All schemas, id order.  Streams rather than materializing.

        A corrupt stored payload raises :class:`RepositoryError` naming
        the offending row; with ``skip_corrupt`` it is logged and the
        iteration continues — bulk consumers (index rebuild, export)
        should not lose the whole repository to one bad row.
        """
        FAULTS.hit("store.iter_schemas")
        cursor = self._conn.execute(
            "SELECT schema_id, payload FROM schemas ORDER BY schema_id")
        for row in cursor:
            try:
                yield Schema.from_dict(json.loads(row["payload"]))
            except (json.JSONDecodeError, SchemaError, ValueError) as exc:
                if skip_corrupt:
                    logger.warning(
                        "skipping corrupt payload of schema %d: %s",
                        row["schema_id"], exc)
                    continue
                raise RepositoryError(
                    f"stored payload of schema {row['schema_id']} is "
                    f"corrupt: {exc}") from exc

    def list_schema_ids(self) -> list[int]:
        cursor = self._conn.execute(
            "SELECT schema_id FROM schemas ORDER BY schema_id")
        return [row["schema_id"] for row in cursor]

    @property
    def schema_count(self) -> int:
        row = self._conn.execute("SELECT COUNT(*) AS n FROM schemas")
        return int(row.fetchone()["n"])

    def _log_change(self, schema_id: int, op: str, when: float) -> None:
        self._conn.execute(
            "INSERT INTO changelog (schema_id, op, changed_at) "
            "VALUES (?, ?, ?)", (schema_id, op, when))

    def changes_since(self, change_id: int) -> list[tuple[int, int, str]]:
        """(change_id, schema_id, op) rows after ``change_id``."""
        def fetch() -> list[tuple[int, int, str]]:
            FAULTS.hit("store.changes_since")
            cursor = self._conn.execute(
                "SELECT change_id, schema_id, op FROM changelog "
                "WHERE change_id > ? ORDER BY change_id", (change_id,))
            return [(row["change_id"], row["schema_id"], row["op"])
                    for row in cursor]

        return self._with_retry(fetch)

    # -- imports -----------------------------------------------------------

    def import_ddl(self, text: str, name: str = "ddl_schema",
                   description: str = "") -> int:
        """Parse DDL text and store the schema; returns its id."""
        schema = parse_ddl(text, schema_name=name)
        schema.description = description
        return self.add_schema(schema)

    def import_xsd(self, text: str, name: str = "xsd_schema",
                   description: str = "") -> int:
        schema = parse_xsd(text, schema_name=name)
        schema.description = description
        return self.add_schema(schema)

    def import_webtable(self, title: str, columns: list[str],
                        description: str = "") -> int:
        schema = schema_from_webtable(title, columns,
                                      description=description)
        return self.add_schema(schema)

    # -- search integration --------------------------------------------

    def profile_store(self, capacity: int = 1024) -> ProfileStore:
        """The repository's (lazily created) match-profile cache.

        A read-through LRU over this repository: serving ``get_schema``
        without the per-call JSON parse and ``get_profile`` with the
        precomputed match artifacts.  Kept in sync by the CRUD methods
        (invalidate) and the indexer refresh (eager rebuild).
        """
        if self._profile_store is None:
            self._profile_store = ProfileStore(self, capacity=capacity)
        return self._profile_store

    def indexer(self, segment_dir: str | None = None,
                merge_policy: str = "tiered",
                shards: int | None = None) -> "RepositoryIndexer":
        """The repository's (lazily created) offline indexer.

        ``segment_dir`` puts the first-created indexer in durable
        segment mode: the index is served from mmapped on-disk segments
        (millisecond cold start) with refreshes flushed and merged
        through the directory's manifest.  An explicit ``shards``
        (including 1) makes that directory a doc-id-sharded layout (see
        :mod:`repro.index.segments.sharded`).  The arguments only
        matter on the creating call; later calls return the existing
        indexer.
        """
        from repro.repository.indexer import RepositoryIndexer
        if self._indexer is None:
            self._indexer = RepositoryIndexer(
                self, profile_store=self.profile_store(),
                segment_dir=segment_dir, merge_policy=merge_policy,
                shards=shards)
        return self._indexer

    def reindex(self) -> int:
        """Refresh the text index from the change log; returns the number
        of index operations applied."""
        return self.indexer().refresh()

    def engine(self, ensemble: MatcherEnsemble | None = None,
               config: SchemrConfig | None = None) -> SchemrEngine:
        """A search engine over this repository's current index.

        Refreshes the index first so results never trail the stored
        schemas.  The engine's telemetry facade is shared with the
        indexer, so refresh batches and search latency land in one
        metrics registry.
        """
        from repro.telemetry import Telemetry
        config = config or SchemrConfig()
        if config.shards > 1:
            raise ServiceError(
                f"config requests {config.shards} shards; build a "
                "repro.sharding.ShardedEngine (or serve with --shards) "
                "instead of the in-process engine")
        telemetry = Telemetry.from_config(config)
        indexer = self.indexer(segment_dir=config.segment_dir,
                               merge_policy=config.merge_policy)
        indexer.telemetry = telemetry
        indexer.refresh()
        # The facade was created solely for this engine; its close()
        # should own the history sink's lifecycle.
        return SchemrEngine(index=indexer.index,
                            source=self.profile_store(),
                            ensemble=ensemble, config=config,
                            telemetry=telemetry, owns_telemetry=True)

    # -- history / collaboration (thin wrappers; logic in submodules) ---

    @property
    def path(self) -> str:
        """The database path (``":memory:"`` for in-memory stores).

        Sharded serving needs this: each worker process opens its own
        connection to the same file.
        """
        return self._path

    @property
    def connection(self) -> sqlite3.Connection:
        """The underlying connection, for the submodules that extend the
        repository (history, collaboration).  Treat as internal."""
        return self._conn
