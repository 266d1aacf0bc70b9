"""Exception hierarchy for the Schemr reproduction.

All library errors derive from :class:`SchemrError` so that callers can
catch every library failure with a single except clause while still being
able to discriminate parse errors from index or repository errors.
"""

from __future__ import annotations


class SchemrError(Exception):
    """Base class for every error raised by this library."""


class ParseError(SchemrError):
    """A schema or query source could not be parsed.

    Carries the position of the offending token when known so the caller
    can point a user at the problem.
    """

    def __init__(self, message: str, *, line: int | None = None,
                 column: int | None = None) -> None:
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}" + (
                f", column {column})" if column is not None else ")")
        super().__init__(message)


class SchemaError(SchemrError):
    """A schema object is structurally invalid (duplicate names, dangling
    foreign keys, empty entities where elements are required, ...)."""


class IndexError_(SchemrError):
    """The inverted index was asked to do something it cannot
    (unknown document id, corrupt persisted segment, ...).

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class SegmentDirectoryError(IndexError_):
    """A segment directory's control files are unreadable or torn.

    Raised instead of a raw ``json.JSONDecodeError`` when
    ``MANIFEST.json`` or ``SHARDS.json`` is truncated or corrupt.
    ``path`` names the offending file and ``hint`` tells the operator
    how to recover (restore from a replica, or re-index from the
    repository) — a half-written control file means the atomic-rename
    commit discipline was violated by something outside the library
    (disk fault, manual edit), so the directory cannot be trusted.
    """

    def __init__(self, message: str, *, path: str = "",
                 hint: str = "") -> None:
        self.path = path
        self.hint = hint
        if hint:
            message = f"{message} ({hint})"
        super().__init__(message)


class QueryError(SchemrError):
    """A search query is empty or otherwise unusable."""


class MatchError(SchemrError):
    """A matcher was mis-configured or fed incompatible inputs."""


class RepositoryError(SchemrError):
    """The schema repository rejected an operation (missing schema id,
    duplicate import, closed connection, ...)."""


class SchemaNotFound(RepositoryError):
    """The repository holds no schema under the requested id.

    An answer, not a failure: a search whose candidate was deleted
    after phase 1 read the index skips it without charging the schema
    source's circuit breaker.
    """


class ServiceError(SchemrError):
    """The HTTP service layer failed to satisfy a request.

    ``status`` carries the HTTP status code when the failure came from
    a server response (429 lets a replay driver count load shedding
    distinctly from hard failures); ``None`` for transport errors.
    ``retry_after`` is the server's ``Retry-After`` hint in seconds
    (0.0 when the response carried none) — the client's backoff floors
    its jittered delay on it.
    """

    def __init__(self, message: str, *, status: int | None = None,
                 retry_after: float = 0.0) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


class ResilienceError(SchemrError):
    """Base class for the resilience layer's structured failures.

    These carry enough machine-readable state (retry hints, breaker
    names) for the service tier to map them to 429/503 responses
    instead of opaque 500s.
    """


class DeadlineExceeded(ResilienceError):
    """A search exhausted its wall-clock budget.

    The engine normally *degrades* rather than raising — this escapes
    only when even the phase-1 fallback cannot be produced in time.
    """


class CircuitOpenError(ResilienceError):
    """A circuit breaker refused the call because it is open.

    ``breaker`` names the breaker; ``retry_after`` is the seconds until
    the next half-open probe would be admitted.
    """

    def __init__(self, message: str, *, breaker: str = "",
                 retry_after: float = 0.0) -> None:
        self.breaker = breaker
        self.retry_after = retry_after
        super().__init__(message)


class AdmissionRejected(ResilienceError):
    """The admission controller shed this request (server overload).

    ``retry_after`` is the suggested client back-off in seconds — the
    service layer turns it into a ``Retry-After`` header on the 429.
    """

    def __init__(self, message: str, *, retry_after: float = 1.0) -> None:
        self.retry_after = retry_after
        super().__init__(message)
