"""Persistent JSONL search-history sink.

"As Schemr is utilized in practice, we can record search histories to
create a training set of search-term to schema-fragment matches" — this
sink is that record: every search's query terms and ranked results,
appended to a JSON-Lines file as they happen, with ``clicked`` flags on
the results a user (or a synthetic click model) selected.  The
meta-learner's training-set builder
(:func:`~repro.workload.train.examples_from_history`) and offline
replay/load testing consume it without touching the serving database.

One JSON object per line::

    {"schema_version": 2, "recorded_at": ..., "query_terms": [...],
     "total_seconds": ...,
     "results": [{"schema_id": 3, "name": "...", "score": 0.81,
                  "rank": 1, "clicked": true}, ...]}

``schema_version`` lets the on-disk format evolve: version 1 lines
(written before the field existed) carry no marker and are read as
legacy, and ``clicked`` flags appear only on results the click model
or a real user selected.

Appends are line-atomic under the sink's lock and flushed per record by
default, so a crash loses at most the entry being written and
concurrent searches never interleave partial lines.  A long replay can
bound file growth with ``max_bytes``: past it the live file rotates to
``<path>.1`` (older generations shift to ``.2``, ``.3``, ...) and
:meth:`SearchHistorySink.read` transparently streams the rotated chain
oldest-first.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Collection, Iterator, Sequence

from repro.errors import RepositoryError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.results import SearchResult

#: Current on-disk record format.  Version 1 lines predate the field
#: and are read as legacy; bump this when ``to_dict`` changes shape.
HISTORY_SCHEMA_VERSION = 2


@dataclass(frozen=True, slots=True)
class HistoryRecord:
    """One logged search: the query and its ranked results."""

    recorded_at: float
    query_terms: tuple[str, ...]
    results: tuple[dict, ...]
    total_seconds: float = 0.0
    schema_version: int = HISTORY_SCHEMA_VERSION

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "recorded_at": self.recorded_at,
            "query_terms": list(self.query_terms),
            "total_seconds": self.total_seconds,
            "results": [dict(result) for result in self.results],
        }

    @property
    def clicked_ids(self) -> set[int]:
        """Schema ids of results carrying a ``clicked`` flag."""
        return {int(result["schema_id"]) for result in self.results
                if result.get("clicked")}

    @classmethod
    def from_dict(cls, data: dict) -> "HistoryRecord":
        try:
            # Versionless legacy lines (pre-``schema_version``) are
            # version 1; anything newer than the writer is rejected
            # loudly rather than silently misread.
            version = int(data.get("schema_version", 1))
            if not 1 <= version <= HISTORY_SCHEMA_VERSION:
                raise ValueError(
                    f"unsupported history schema_version {version} "
                    f"(this reader understands <= {HISTORY_SCHEMA_VERSION})")
            return cls(
                recorded_at=float(data["recorded_at"]),
                query_terms=tuple(str(t) for t in data["query_terms"]),
                results=tuple(dict(r) for r in data["results"]),
                total_seconds=float(data.get("total_seconds", 0.0)),
                schema_version=version,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise RepositoryError(
                f"malformed history record: {exc}") from exc


class SearchHistorySink:
    """Append-only JSONL writer (and reader) of search traffic.

    ``max_bytes`` bounds the live file: once a write pushes it past the
    limit the file rotates to ``<path>.1`` and a fresh file opens.
    ``max_rotated_files`` caps how many rotated generations are kept
    (older ones are deleted); ``None`` keeps them all.
    """

    def __init__(self, path: str | Path, flush_every: int = 1,
                 wall_clock: Callable[[], float] = time.time,
                 max_bytes: int | None = None,
                 max_rotated_files: int | None = None) -> None:
        if flush_every < 1:
            raise ValueError(
                f"flush_every must be >= 1, got {flush_every}")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        if max_rotated_files is not None and max_rotated_files < 1:
            raise ValueError(
                f"max_rotated_files must be >= 1, got {max_rotated_files}")
        self._path = Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._file = open(self._path, "a", encoding="utf-8")
        self._flush_every = flush_every
        self._pending = 0
        self._written = 0
        self._closed = False
        self._wall_clock = wall_clock
        self._max_bytes = max_bytes
        self._max_rotated_files = max_rotated_files
        self._bytes = self._path.stat().st_size
        self._rotations = 0

    @property
    def path(self) -> Path:
        return self._path

    @property
    def records_written(self) -> int:
        """Records appended by this sink instance."""
        with self._lock:
            return self._written

    @property
    def rotations(self) -> int:
        """Times the live file rolled over to ``<path>.1``."""
        with self._lock:
            return self._rotations

    def record(self, query_terms: Sequence[str],
               results: "Sequence[SearchResult]",
               total_seconds: float = 0.0,
               clicked_ids: Collection[int] | None = None,
               recorded_at: float | None = None) -> HistoryRecord:
        """Append one search; returns the record as written.

        ``clicked_ids`` marks the results the user (or a synthetic
        click model) selected — those result rows gain a
        ``"clicked": true`` flag, the judged-relevance signal the
        meta-learner trains on.  ``recorded_at`` overrides the clock
        stamp — the replay driver writes *virtual* arrival times so a
        harvested history is byte-identical across runs.
        """
        clicked = frozenset(clicked_ids) if clicked_ids else frozenset()
        entry = HistoryRecord(
            recorded_at=(recorded_at if recorded_at is not None
                         else self._wall_clock()),
            query_terms=tuple(query_terms),
            results=tuple(
                {"schema_id": result.schema_id, "name": result.name,
                 "score": result.score, "rank": rank,
                 **({"clicked": True} if result.schema_id in clicked
                    else {})}
                for rank, result in enumerate(results, start=1)),
            total_seconds=total_seconds,
        )
        line = json.dumps(entry.to_dict(), ensure_ascii=False) + "\n"
        encoded = len(line.encode("utf-8"))
        with self._lock:
            if self._closed:
                raise RepositoryError(
                    f"history sink {self._path} is closed")
            self._file.write(line)
            self._pending += 1
            self._written += 1
            self._bytes += encoded
            if self._pending >= self._flush_every:
                self._file.flush()
                self._pending = 0
            if self._max_bytes is not None and self._bytes >= self._max_bytes:
                self._rotate_locked()
        return entry

    def _rotate_locked(self) -> None:
        """Roll the live file to ``.1``, shifting older generations up.

        Caller holds the sink lock.  Rotation is rename-based, so a
        reader that opened the old file keeps a consistent view and a
        crash between renames loses ordering of at most one generation.
        """
        self._file.flush()
        self._file.close()
        generations = self._rotated_generations()
        for n in sorted(generations, reverse=True):
            source = Path(f"{self._path}.{n}")
            if (self._max_rotated_files is not None
                    and n + 1 > self._max_rotated_files):
                source.unlink(missing_ok=True)
            else:
                source.rename(f"{self._path}.{n + 1}")
        self._path.rename(f"{self._path}.1")
        self._file = open(self._path, "a", encoding="utf-8")
        self._bytes = 0  # lint: unlocked (caller holds self._lock)
        self._pending = 0  # lint: unlocked (caller holds self._lock)
        self._rotations += 1

    def _rotated_generations(self) -> list[int]:
        """Existing rotation suffix numbers for this sink's path."""
        generations = []
        prefix = self._path.name + "."
        for sibling in self._path.parent.iterdir():
            if not sibling.name.startswith(prefix):
                continue
            suffix = sibling.name[len(prefix):]
            if suffix.isdigit():
                generations.append(int(suffix))
        return generations

    def flush(self) -> None:
        with self._lock:
            if not self._closed:
                self._file.flush()
                self._pending = 0

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._file.flush()
                self._file.close()
                self._closed = True

    def __enter__(self) -> "SearchHistorySink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- reading -------------------------------------------------------

    @staticmethod
    def read(path: str | Path) -> Iterator[HistoryRecord]:
        """Stream records back from a history file, oldest first.

        Follows the rotation chain: ``<path>.N`` (oldest) down to
        ``<path>.1``, then the live file.  Tolerates a trailing partial
        line per file (crash mid-append) by raising only on lines that
        parse as JSON but are not valid records; a final line that is
        not valid JSON is skipped.
        """
        base = Path(path)
        rotated = []
        if base.parent.exists():
            prefix = base.name + "."
            for sibling in base.parent.iterdir():
                suffix = sibling.name[len(prefix):] \
                    if sibling.name.startswith(prefix) else ""
                if suffix.isdigit():
                    rotated.append((int(suffix), sibling))
        for _, file_path in sorted(rotated, reverse=True):
            yield from SearchHistorySink._read_file(file_path)
        yield from SearchHistorySink._read_file(base)

    @staticmethod
    def _read_file(file_path: Path) -> Iterator[HistoryRecord]:
        if not file_path.exists():
            return
        with open(file_path, encoding="utf-8") as handle:
            lines = handle.readlines()
        for i, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError:
                if i == len(lines) - 1:
                    continue  # torn trailing append
                raise RepositoryError(
                    f"corrupt history line {i + 1} in {file_path}")
            yield HistoryRecord.from_dict(data)

    @staticmethod
    def load(path: str | Path) -> list[HistoryRecord]:
        """All records of a history file (and its rotation chain)."""
        return list(SearchHistorySink.read(path))
