"""The Schemr HTTP server (stdlib ``http.server``).

Endpoints (mirroring the Figure 5 request flow):

* ``GET /search?keywords=patient+height&top=10`` — XML result list;
* ``POST /search?keywords=...`` with a DDL/XSD fragment as the request
  body — keyword + fragment search;
* ``GET /schema/<id>`` — GraphML for the visualization client
  (``?scores=path:score,...`` attaches match scores for encoding);
* ``GET /metrics`` — Prometheus text exposition of the engine's
  telemetry registry (per-phase histograms, cache ratios, HTTP stats);
* ``GET /stats`` — XML operational summary (phase p50/p95, cache hit
  rates, slow queries, empty-result reasons);
* ``GET /health`` / ``GET /healthz`` — liveness probes;
* ``GET /readyz`` — readiness: 503 (with ``Retry-After``) while a
  circuit breaker is open, the indexer is mid-refresh, or (on a
  replica) the replication lag exceeds ``--max-replica-lag``;
* ``GET /replication/manifest`` — the committed segment state
  (generation + per-segment checksums) a replica syncs against;
* ``GET /replication/segment/<name>`` — one immutable segment file,
  range-resumable (``Range: bytes=N-``).

Search responses carry the served index generation (the change-log
cursor) both as a ``generation`` attribute on ``<searchResults>`` and
as an ``X-Schemr-Generation`` header, so replica staleness is
observable by every client, never silent.

Resilience: search endpoints are admission-controlled (bounded queue +
concurrency limiter; overload answers a structured 429 with
``Retry-After`` instead of piling requests onto a saturated engine),
sockets carry a read timeout (a stalled client costs a 408, not a
wedged handler thread), and resilience-layer errors map to structured
429/503 responses — never an unhandled 500.

The default ``BaseHTTPRequestHandler`` access log is replaced by an
opt-in structured one: every request is measured (method, route,
status, duration) into the telemetry registry, and with
``SchemrServer(..., access_log=True)`` each request is additionally
logged through the ``repro.service.access`` logger.
"""

from __future__ import annotations

import json
import logging
import sqlite3
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro.core.config import SchemrConfig
from repro.core.engine import SchemrEngine
from repro.errors import (AdmissionRejected, CircuitOpenError,
                          DeadlineExceeded, QueryError, RepositoryError,
                          SchemrError, ServiceError)
from repro.repository.indexer import RepositoryIndexer
from repro.repository.store import SchemaRepository
from repro.resilience.breaker import STATE_OPEN
from repro.resilience.shedding import AdmissionController
from repro.service.graphml import graphml_for_schema
from repro.service.xmlresponse import results_to_xml
from repro.telemetry import Telemetry

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sharding import ShardedEngine

logger = logging.getLogger(__name__)
access_logger = logging.getLogger("repro.service.access")


class _SchemrRequestHandler(BaseHTTPRequestHandler):
    """Routes requests to the engine/repository held by the server."""

    # Set by SchemrServer before serving.
    engine: "SchemrEngine | ShardedEngine"
    repository: SchemaRepository
    telemetry: Telemetry
    admission: AdmissionController
    indexer: RepositoryIndexer | None = None
    #: The segment directory served (enables ``/replication/*``).
    segment_dir: Path | None = None
    #: Set on replicas: gates ``/readyz`` on replication lag.
    replica_syncer = None
    max_replica_lag_seconds: float = 30.0
    access_log: bool = False
    #: Socket read timeout (StreamRequestHandler applies it in setup());
    #: a client that stalls mid-request costs this many seconds, not a
    #: handler thread for the rest of the process lifetime.
    timeout: float | None = 30.0

    # -- plumbing --------------------------------------------------------

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        # The BaseHTTPRequestHandler stderr log is replaced by the
        # structured access log in _handle (opt-in, telemetry-routed);
        # unconditional stderr spam would break tests and benches.
        pass

    def _send(self, status: int, body: str,
              content_type: str = "application/xml",
              extra_headers: dict[str, str] | None = None) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", f"{content_type}; charset=utf-8")
        self.send_header("Content-Length", str(len(payload)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)
        self._status = status

    def _send_error_xml(self, status: int, message: str,
                        retry_after: float | None = None) -> None:
        extra = None
        if retry_after is not None:
            # Retry-After is delta-seconds; round up so "0.5" does not
            # become an immediate (header value 0) retry stampede.
            extra = {"Retry-After": str(max(1, int(retry_after + 0.999)))}
        self._send(status,
                   f'<?xml version="1.0"?><error status="{status}">'
                   f"{_xml_escape(message)}</error>", extra_headers=extra)

    # -- routing ---------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._handle(body=None)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        length = int(self.headers.get("Content-Length", "0"))
        try:
            body = self.rfile.read(length).decode("utf-8") if length else ""
        except TimeoutError:
            # The client promised a body and stalled; the request line
            # already arrived so a structured 408 is still deliverable.
            self.close_connection = True
            self._status = 0
            try:
                self._send_error_xml(408, "timed out reading request body")
            except OSError:  # pragma: no cover - socket already dead
                pass
            self._log_access(_route_of(
                urllib.parse.urlparse(self.path).path), 0.0)
            return
        self._handle(body=body)

    def _handle(self, body: str | None) -> None:
        parsed = urllib.parse.urlparse(self.path)
        self._status = 0
        started = time.perf_counter()
        route = _route_of(parsed.path)
        try:
            if parsed.path in ("/health", "/healthz"):
                self._send(200, '<?xml version="1.0"?><ok/>')
            elif parsed.path == "/readyz":
                self._handle_readyz()
            elif parsed.path == "/metrics":
                self._handle_metrics()
            elif parsed.path == "/stats":
                self._handle_stats()
            elif parsed.path == "/":
                self._handle_gui(parsed.query, body)
            elif parsed.path == "/search":
                self._handle_search(parsed.query, body)
            elif parsed.path == "/suggest":
                self._handle_suggest(parsed.query)
            elif parsed.path == "/replication/manifest":
                self._handle_replication_manifest()
            elif parsed.path.startswith("/replication/segment/"):
                self._handle_replication_segment(parsed.path)
            elif (parsed.path.startswith("/schema/")
                    and parsed.path.endswith("/svg")):
                self._handle_schema_svg(parsed.path, parsed.query)
            elif parsed.path.startswith("/schema/"):
                self._handle_schema(parsed.path, parsed.query)
            else:
                self._send_error_xml(404, f"no route for {parsed.path}")
        except AdmissionRejected as exc:
            self._send_error_xml(429, str(exc), retry_after=exc.retry_after)
        except CircuitOpenError as exc:
            self._send_error_xml(503, str(exc),
                                 retry_after=exc.retry_after or 1.0)
        except DeadlineExceeded as exc:
            # The engine degrades rather than raising; this is the
            # defensive boundary for a budget so tight even the
            # phase-1 fallback could not be produced.
            self._send_error_xml(503, str(exc), retry_after=1.0)
        except sqlite3.OperationalError as exc:
            # Transient store trouble (locked/busy past the retry
            # budget) is an availability problem, not a client error.
            self._send_error_xml(503, f"storage unavailable: {exc}",
                                 retry_after=1.0)
        except RepositoryError as exc:
            self._send_error_xml(404, str(exc))
        except SchemrError as exc:
            self._send_error_xml(400, str(exc))
        except Exception as exc:
            # Unexpected bug: tell the client 500 but keep the traceback
            # — a silent 500 is undebuggable from the access log alone.
            logger.exception("unhandled error serving %s: %s",
                             route, exc)
            self._send_error_xml(500, f"internal error: {exc}")
        finally:
            self._log_access(route, time.perf_counter() - started)

    def _log_access(self, route: str, seconds: float) -> None:
        """Structured access log: metrics always (when enabled), the
        ``repro.service.access`` logger when opted in."""
        telemetry = self.telemetry
        if telemetry.enabled:
            m = telemetry.metrics
            m.counter("schemr_http_requests_total", "HTTP requests",
                      route=route, status=str(self._status)).inc()
            m.histogram("schemr_http_request_seconds",
                        "HTTP request latency", route=route
                        ).observe(seconds)
        if self.access_log:
            access_logger.info(
                '%s %s %d %.2fms "%s"', self.command, route, self._status,
                seconds * 1000.0, self.path)

    def _handle_metrics(self) -> None:
        self._send(200, self.telemetry.metrics.to_prometheus_text(),
                   content_type="text/plain")

    def _handle_stats(self) -> None:
        self._send(200, self.telemetry.summary_xml())

    def _handle_readyz(self) -> None:
        """Readiness: open breakers and mid-refresh indexes are
        temporary conditions a load balancer should route around, not
        liveness failures worth a restart."""
        open_breakers = [b for b in self.engine.breakers.values()
                         if b.state == STATE_OPEN]
        if open_breakers:
            retry_after = max(b.retry_after() for b in open_breakers)
            names = ", ".join(sorted(b.name for b in open_breakers))
            self._send_error_xml(
                503, f"circuit breaker open: {names}",
                retry_after=max(retry_after, 1.0))
            return
        if self.indexer is not None and self.indexer.refreshing:
            self._send_error_xml(503, "index refresh in progress",
                                 retry_after=1.0)
            return
        syncer = self.replica_syncer
        if syncer is not None \
                and not syncer.is_ready(self.max_replica_lag_seconds):
            lag = syncer.lag_seconds()
            detail = ("never synced" if lag == float("inf")
                      else f"lag {lag:.1f}s")
            self._send_error_xml(
                503,
                f"replica {detail} exceeds max "
                f"{self.max_replica_lag_seconds:.1f}s",
                retry_after=1.0)
            return
        shard_status = getattr(self.engine, "shard_status", None)
        if shard_status is None:
            self._send(200, '<?xml version="1.0"?><ready/>')
            return
        # Sharded serving: not ready while any worker is mid-handshake
        # or a reopen broadcast is in flight.  A *dead* worker does not
        # unready the pool — its documents are served via local repair
        # until the respawn lands — but the per-shard health is always
        # in the body so operators (and the no-orphan tests) can see
        # worker pids and states.
        if not self.engine.ready():
            self._send_error_xml(
                503, "shard workers starting or reopening",
                retry_after=1.0)
            return
        shards = "".join(
            f'<shard id="{s["shard"]}" state="{_xml_escape(s["state"])}" '
            f'pid="{s["pid"] if s["pid"] is not None else ""}" '
            f'restarts="{s["restarts"]}" documents="{s["documents"]}" '
            f'breaker="{_xml_escape(s["breaker"])}"/>'
            for s in shard_status())
        self._send(200, f'<?xml version="1.0"?><ready>{shards}</ready>')

    def _served_generation(self) -> int | None:
        """The change-log cursor the serving index durably reflects.

        Comparable across processes and hosts (unlike the in-memory
        generation counter), which is what makes replica staleness
        observable: a trailing replica stamps a smaller number than
        the primary.  None for purely in-memory indexes.
        """
        index = getattr(self.engine.searcher, "index", None)
        return getattr(index, "last_change_id", None)

    def _handle_search(self, query_string: str, body: str | None) -> None:
        params = urllib.parse.parse_qs(query_string)
        keywords = " ".join(params.get("keywords", []))
        top_n = _int_param(params, "top", default=10, minimum=1)
        offset = _int_param(params, "offset", default=0, minimum=0)
        fragment = body if body else None
        with self.admission.admitted():
            results = self.engine.search(keywords=keywords or None,
                                         fragment=fragment, top_n=top_n,
                                         offset=offset)
            profile = self.engine.thread_profile
        degradation = profile.degradation if profile is not None else "none"
        generation = self._served_generation()
        extra = ({"X-Schemr-Generation": str(generation)}
                 if generation is not None else None)
        self._send(200, results_to_xml(results, query=keywords,
                                       degradation=degradation,
                                       generation=generation),
                   extra_headers=extra)

    # -- replication (the primary side of segment shipping) --------------

    def _handle_replication_manifest(self) -> None:
        from repro.replication import build_replication_manifest
        if self.segment_dir is None:
            self._send_error_xml(
                404, "this server serves an in-memory index; start it "
                     "with --segment-dir to enable replication")
            return
        manifest = build_replication_manifest(self.segment_dir)
        self._send(200, json.dumps(manifest),
                   content_type="application/json")

    def _handle_replication_segment(self, path: str) -> None:
        from repro.replication import valid_segment_ref
        if self.segment_dir is None:
            self._send_error_xml(
                404, "this server serves an in-memory index; start it "
                     "with --segment-dir to enable replication")
            return
        name = path.removeprefix("/replication/segment/")
        parts = name.split("/")
        if len(parts) == 1:
            dirname, filename = "", parts[0]
        elif len(parts) == 2:
            dirname, filename = parts
        else:
            self._send_error_xml(400, f"bad segment reference {name!r}")
            return
        if not valid_segment_ref(dirname, filename):
            self._send_error_xml(400, f"bad segment reference {name!r}")
            return
        seg_path = (self.segment_dir / dirname / filename if dirname
                    else self.segment_dir / filename)
        try:
            handle = open(seg_path, "rb")
        except FileNotFoundError:
            self._send_error_xml(
                404, f"no segment {name} (merged away; refetch the "
                     f"manifest)")
            return
        with handle:
            size = seg_path.stat().st_size
            offset = _parse_range(self.headers.get("Range"))
            if offset is None:
                status, start = 200, 0
            elif offset >= size:
                self._send_error_xml(416, f"range start {offset} beyond "
                                          f"{size}-byte segment")
                return
            else:
                status, start = 206, offset
            self.send_response(status)
            self.send_header("Content-Type", "application/octet-stream")
            self.send_header("Content-Length", str(size - start))
            self.send_header("Accept-Ranges", "bytes")
            if status == 206:
                self.send_header("Content-Range",
                                 f"bytes {start}-{size - 1}/{size}")
            self.end_headers()
            handle.seek(start)
            while True:
                block = handle.read(1 << 20)
                if not block:
                    break
                self.wfile.write(block)
        self._status = status

    def _handle_suggest(self, query_string: str) -> None:
        from repro.index.suggest import PrefixSuggester
        params = urllib.parse.parse_qs(query_string)
        prefix = " ".join(params.get("prefix", [])).strip()
        limit = _int_param(params, "limit", default=8, minimum=0)
        suggester: PrefixSuggester = getattr(type(self), "suggester")
        suggestions = suggester.suggest(prefix, limit=limit)
        body = "".join(
            f'<suggestion term="{_xml_escape(s.term)}" '
            f'df="{s.document_frequency}"/>' for s in suggestions)
        self._send(200, f'<?xml version="1.0"?>'
                        f'<suggestions prefix="{_xml_escape(prefix)}">'
                        f"{body}</suggestions>")

    def _handle_gui(self, query_string: str, body: str | None) -> None:
        from repro.service.gui import render_search_page
        if body:
            params = urllib.parse.parse_qs(body)
        else:
            params = urllib.parse.parse_qs(query_string)
        keywords = " ".join(params.get("keywords", [])).strip()
        fragment = "\n".join(params.get("fragment", [])).strip()
        offset = _int_param(params, "offset", default=0, minimum=0)
        results = None
        if keywords or fragment:
            with self.admission.admitted():
                results = self.engine.search(keywords=keywords or None,
                                             fragment=fragment or None,
                                             offset=offset)
        self._send(200,
                   render_search_page(keywords, fragment, results,
                                      offset=offset),
                   content_type="text/html")

    def _parse_scores(self, params: dict[str, list[str]]) \
            -> dict[str, float] | None:
        """``scores=path:score,...`` -> dict; None signals a bad pair
        (the caller has already sent the 400)."""
        scores: dict[str, float] = {}
        for blob in params.get("scores", []):
            for pair in blob.split(","):
                if not pair:
                    continue
                element_path, _, value = pair.rpartition(":")
                try:
                    scores[element_path] = float(value)
                except ValueError:
                    self._send_error_xml(400, f"bad score pair {pair!r}")
                    return None
        return scores

    def _handle_schema_svg(self, path: str, query_string: str) -> None:
        from repro.service.gui import render_schema_svg
        id_part = path.removeprefix("/schema/").removesuffix("/svg")
        try:
            schema_id = int(id_part)
        except ValueError:
            self._send_error_xml(400, f"bad schema id {id_part!r}")
            return
        params = urllib.parse.parse_qs(query_string)
        scores = self._parse_scores(params)
        if scores is None:
            return
        layout = params.get("layout", ["radial"])[0]
        depth = _int_param(params, "depth", default=3, minimum=0)
        focus = params.get("focus", [None])[0]
        schema = self.repository.get_schema(schema_id)
        svg = render_schema_svg(schema, layout=layout, depth=depth,
                                focus=focus, match_scores=scores)
        self._send(200, svg, content_type="image/svg+xml")

    def _handle_schema(self, path: str, query_string: str) -> None:
        id_part = path.removeprefix("/schema/")
        try:
            schema_id = int(id_part)
        except ValueError:
            self._send_error_xml(400, f"bad schema id {id_part!r}")
            return
        params = urllib.parse.parse_qs(query_string)
        scores = self._parse_scores(params)
        if scores is None:
            return
        schema = self.repository.get_schema(schema_id)
        self._send(200, graphml_for_schema(schema, match_scores=scores))


def _xml_escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def _parse_range(header: str | None) -> int | None:
    """The start offset of a ``bytes=N-`` range header, else None.

    Only the open-ended suffix form the replica syncer sends is
    honored; anything else falls back to a full-body 200, which is
    always a correct (if larger) answer.
    """
    if header is None or not header.startswith("bytes="):
        return None
    spec = header.removeprefix("bytes=")
    if not spec.endswith("-"):
        return None
    try:
        return int(spec[:-1])
    except ValueError:
        return None


_FIXED_ROUTES = frozenset(
    ("/", "/health", "/healthz", "/readyz", "/metrics", "/stats",
     "/search", "/suggest", "/replication/manifest"))


def _route_of(path: str) -> str:
    """Collapse a request path to a bounded-cardinality route label.

    Metric label sets must not grow with traffic, so schema ids (and
    arbitrary probe paths) are folded into placeholders.
    """
    if path in _FIXED_ROUTES:
        return path
    if path.startswith("/schema/"):
        return ("/schema/<id>/svg" if path.endswith("/svg")
                else "/schema/<id>")
    if path.startswith("/replication/segment/"):
        return "/replication/segment/<name>"
    return "<other>"


class SchemrServer:
    """Owns the HTTP server lifecycle around a repository.

    Usage::

        server = SchemrServer(repository)
        with server.running() as base_url:
            ...  # point SchemrClient at base_url
    """

    def __init__(self, repository: SchemaRepository,
                 host: str = "127.0.0.1", port: int = 0,
                 config: SchemrConfig | None = None,
                 access_log: bool = False) -> None:
        from repro.index.suggest import PrefixSuggester
        self._repository = repository
        # A serving deployment wants observability: unless the caller
        # supplies a config, telemetry is on (the enabled-path overhead
        # is a few percent; see benchmarks/bench_telemetry_overhead.py).
        if config is None:
            config = SchemrConfig(telemetry_enabled=True)
        self._replica_syncer = None
        indexer: RepositoryIndexer | None
        if config.replicate_from:
            # Replica serving: the index is a follower of a primary's
            # segment directory — never locally indexed, so there is no
            # indexer in the loop and refreshes never run here.
            self._engine, self._replica_syncer = _build_replica_engine(
                repository, config)
            indexer = None
        elif config.shards > 1:
            # Worker-pool serving: phases 1+2 scatter to per-shard
            # processes; the front's pages stay byte-identical to the
            # in-process engine's.
            from repro.sharding import ShardedEngine
            self._engine = ShardedEngine(repository, config=config)
            indexer = repository.indexer()
        else:
            self._engine = repository.engine(config=config)
            indexer = repository.indexer()
        self._admission = AdmissionController(
            max_concurrent=config.max_concurrent_searches,
            queue_size=config.admission_queue_size,
            queue_timeout_seconds=config.admission_timeout_seconds)
        handler = type("BoundHandler", (_SchemrRequestHandler,), {
            "engine": self._engine,
            "repository": self._repository,
            "suggester": PrefixSuggester(self._engine.searcher.index),
            "telemetry": self._engine.telemetry,
            "admission": self._admission,
            "indexer": indexer,
            "segment_dir": (Path(config.segment_dir)
                            if config.segment_dir else None),
            "replica_syncer": self._replica_syncer,
            "max_replica_lag_seconds": config.max_replica_lag_seconds,
            "access_log": access_log,
            "timeout": config.request_timeout_seconds,
        })
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._thread: threading.Thread | None = None
        self._register_instruments()

    def _register_instruments(self) -> None:
        telemetry = self._engine.telemetry
        if not telemetry.enabled:
            return
        m = telemetry.metrics
        admission = self._admission
        m.gauge("schemr_admission_active",
                "Searches currently admitted",
                callback=lambda: admission.active)
        m.gauge("schemr_admission_waiting",
                "Searches queued for admission",
                callback=lambda: admission.waiting)
        m.counter("schemr_admission_rejected_total",
                  "Searches shed by admission control",
                  callback=lambda: admission.rejected_total)
        m.counter("schemr_admission_timeouts_total",
                  "Admissions that timed out in the queue",
                  callback=lambda: admission.timed_out_total)

    @property
    def engine(self) -> "SchemrEngine | ShardedEngine":
        return self._engine

    @property
    def replica_syncer(self):
        """The replica's sync loop, or None on a primary."""
        return self._replica_syncer

    @property
    def admission(self) -> AdmissionController:
        return self._admission

    @property
    def telemetry(self) -> Telemetry:
        return self._engine.telemetry

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def base_url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> None:
        if self._thread is not None:
            return
        if self._replica_syncer is not None:
            self._replica_syncer.start()
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        daemon=True)
        self._thread.start()
        logger.info("schemr service listening on %s", self.base_url)

    def stop(self, join_timeout_seconds: float = 5.0) -> None:
        """Stop serving; raises :class:`ServiceError` if the serve
        thread fails to exit within ``join_timeout_seconds``.

        The previous behaviour — a silently ignored ``join`` timeout —
        left a live thread holding the listening socket while the
        caller believed the server was down.  A hung shutdown is now
        detected, counted, logged, and raised; the server is left in
        its partial state so a later :meth:`stop` can retry the join.
        """
        if self._thread is None:
            return
        if self._replica_syncer is not None:
            self._replica_syncer.stop()
        thread = self._thread
        self._httpd.shutdown()
        thread.join(timeout=join_timeout_seconds)
        if thread.is_alive():
            telemetry = self._engine.telemetry
            if telemetry.enabled:
                telemetry.metrics.counter(
                    "schemr_server_stop_hangs_total",
                    "stop() calls whose serve thread failed to exit").inc()
            logger.error(
                "server thread failed to exit within %.1fs; the listening "
                "socket is still held", join_timeout_seconds)
            raise ServiceError(
                f"server thread did not exit within {join_timeout_seconds}s")
        self._httpd.server_close()
        self._thread = None
        self._engine.close()
        logger.info("schemr service stopped")

    def running(self) -> "_RunningServer":
        """Context manager that starts/stops the server."""
        return _RunningServer(self)


def _build_replica_engine(repository: SchemaRepository,
                          config: SchemrConfig):
    """A serving engine that follows a primary instead of indexing.

    Performs one blocking catch-up sync before opening the index, so a
    fresh replica starts serving the primary's current generation
    rather than an empty page.  If the primary is down but a previous
    sync left committed local state, the replica serves that (stale,
    and ``/readyz`` says so); with neither, startup fails loudly.
    """
    from repro.index.segments import open_segment_index
    from repro.replication import (DirectorySource, HttpSource,
                                   ReplicaSyncer)
    telemetry = Telemetry.from_config(config)
    target = config.replicate_from
    source = (HttpSource(target) if "://" in target
              else DirectorySource(target))
    syncer = ReplicaSyncer(source, config.segment_dir,
                           telemetry=telemetry,
                           poll_seconds=config.replica_poll_seconds)
    try:
        syncer.sync_once()
    except SchemrError as exc:
        local = Path(config.segment_dir)
        if not (local / "MANIFEST.json").exists() \
                and not (local / "SHARDS.json").exists():
            raise ServiceError(
                f"replica has no local state and the initial sync from "
                f"{target} failed: {exc}") from exc
        logger.warning("initial replica sync from %s failed; serving "
                       "the existing local state: %s", target, exc)
    index = open_segment_index(config.segment_dir, sweep=True)
    syncer.attach_index(index)
    engine = SchemrEngine(index=index, source=repository.profile_store(),
                          config=config, telemetry=telemetry,
                          owns_telemetry=True)
    return engine, syncer


def _int_param(params: dict[str, list[str]], name: str, default: int,
               minimum: int) -> int:
    """An integer query parameter, validated at the edge (bad -> 400)."""
    raw = params.get(name, [str(default)])[0]
    try:
        value = int(raw)
    except ValueError:
        raise QueryError(f"{name} must be an integer, got {raw!r}") from None
    if value < minimum:
        raise QueryError(f"{name} must be >= {minimum}, got {value}")
    return value


class _RunningServer:
    def __init__(self, server: SchemrServer) -> None:
        self._server = server

    def __enter__(self) -> str:
        self._server.start()
        return self._server.base_url

    def __exit__(self, *exc_info: object) -> None:
        self._server.stop()
