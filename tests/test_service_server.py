"""Integration tests for the HTTP service (real sockets, Figure 5 flow)."""

import time
import urllib.request

import pytest

from repro.errors import ServiceError
from repro.service.client import SchemrClient
from repro.service.server import SchemrServer


@pytest.fixture
def running_server(small_repository):
    server = SchemrServer(small_repository)
    server.start()
    yield server
    server.stop()


@pytest.fixture
def client(running_server) -> SchemrClient:
    return SchemrClient(running_server.base_url)


class TestSearchEndpoint:
    def test_keyword_search_roundtrip(self, client):
        results = client.search("patient height gender diagnosis")
        assert results[0].name == "clinic_emr"
        assert results[0].score > 0

    def test_fragment_post(self, client):
        ddl = "CREATE TABLE patient (height DECIMAL, gender CHAR(1));"
        results = client.search(fragment=ddl)
        assert results[0].name == "clinic_emr"

    def test_top_n_parameter(self, client):
        results = client.search("name", top_n=1)
        assert len(results) <= 1

    def test_empty_query_is_client_error(self, client):
        with pytest.raises(ServiceError, match="400"):
            client.search("")

    def test_no_results(self, client):
        assert client.search("qqqzzzxxx") == []

    @pytest.mark.parametrize("params", [
        "top=abc", "top=0", "top=-3", "top=1.5",
        "offset=x", "offset=-1",
    ])
    def test_bad_paging_parameter_is_a_structured_400(
            self, running_server, params, caplog):
        """Validated at the edge: never the generic-500 path, never a
        logged traceback."""
        with caplog.at_level("ERROR", logger="repro.service.server"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"{running_server.base_url}/search"
                    f"?keywords=patient&{params}")
        assert excinfo.value.code == 400
        body = excinfo.value.read().decode()
        assert '<error status="400">' in body
        assert params.split("=")[0] in body
        assert not caplog.records

    def test_zero_offset_is_the_first_page(self, running_server):
        with urllib.request.urlopen(
                f"{running_server.base_url}/search"
                "?keywords=patient&top=1&offset=0") as response:
            assert response.status == 200


class TestSchemaEndpoint:
    def test_graphml_roundtrip(self, client):
        graph = client.schema_graph(1)
        assert graph.has_node("patient")
        assert graph.graph["name"] == "clinic_emr"

    def test_match_scores_forwarded(self, client):
        graph = client.schema_graph(
            1, match_scores={"patient.height": 0.8})
        assert graph.nodes["patient.height"]["match_score"] == \
            pytest.approx(0.8)

    def test_unknown_schema_404(self, client):
        with pytest.raises(ServiceError, match="404"):
            client.schema_graph(999)

    def test_bad_schema_id_400(self, running_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                f"{running_server.base_url}/schema/notanumber")
        assert excinfo.value.code == 400


class TestServerPlumbing:
    def test_health(self, client):
        assert client.health() is True

    def test_health_false_when_down(self):
        client = SchemrClient("http://127.0.0.1:1")  # nothing listens
        assert client.health() is False

    def test_unknown_route_404(self, running_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{running_server.base_url}/nope")
        assert excinfo.value.code == 404

    def test_running_context_manager(self, small_repository):
        server = SchemrServer(small_repository)
        with server.running() as base_url:
            assert SchemrClient(base_url).health()
        # After exit the port is closed.
        assert not SchemrClient(base_url).health()

    def test_figure5_flow(self, client):
        """The full architecture loop: search -> pick result -> fetch its
        GraphML with the element scores for visual encoding."""
        results = client.search("patient height gender diagnosis")
        top = results[0]
        graph = client.schema_graph(top.schema_id,
                                    match_scores=top.element_scores)
        scored_nodes = [n for n, d in graph.nodes(data=True)
                        if d.get("match_score", 0) > 0]
        assert scored_nodes  # the GUI has something to highlight


class TestObservabilityEndpoints:
    def _get(self, base_url: str, path: str) -> str:
        return urllib.request.urlopen(f"{base_url}{path}").read().decode()

    def test_metrics_scrape_after_search(self, running_server, client):
        client.search("patient height")
        text = self._get(running_server.base_url, "/metrics")
        assert "# TYPE schemr_searches_total counter" in text
        assert "schemr_searches_total 1" in text
        assert "schemr_phase_seconds_bucket" in text
        assert "schemr_index_documents 3" in text

    def test_metrics_content_type_is_text(self, running_server):
        response = urllib.request.urlopen(
            f"{running_server.base_url}/metrics")
        assert response.headers["Content-Type"].startswith("text/plain")

    def test_stats_xml_document(self, running_server, client):
        client.search("patient height")
        xml = self._get(running_server.base_url, "/stats")
        assert xml.startswith('<?xml version="1.0"?>')
        assert '<engine searches="1"' in xml
        assert "<phases>" in xml
        assert '<cache name="query"' in xml

    def test_http_requests_are_measured_with_folded_routes(
            self, running_server, client):
        client.search("patient")
        client.schema_graph(1)
        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(f"{running_server.base_url}/nope")
        # The handler measures the request *after* the response body is
        # on the wire, so give its finally block a moment to run.
        deadline = time.time() + 5.0
        while time.time() < deadline:
            snap = running_server.telemetry.metrics.snapshot()
            if snap.value("schemr_http_requests_total",
                          route="<other>", status="404"):
                break
            time.sleep(0.01)
        assert snap.value("schemr_http_requests_total",
                          route="/search", status="200") == 1
        assert snap.value("schemr_http_requests_total",
                          route="/schema/<id>", status="200") == 1
        assert snap.value("schemr_http_requests_total",
                          route="<other>", status="404") == 1
        assert snap.find("schemr_http_request_seconds",
                         route="/search").count == 1

    def test_access_log_opt_in(self, small_repository, caplog):
        server = SchemrServer(small_repository, access_log=True)
        with caplog.at_level("INFO", logger="repro.service.access"):
            with server.running() as base_url:
                urllib.request.urlopen(f"{base_url}/health").read()
                deadline = time.time() + 5.0
                while time.time() < deadline and not caplog.records:
                    time.sleep(0.01)
        messages = [r.getMessage() for r in caplog.records
                    if r.name == "repro.service.access"]
        assert any("GET /health 200" in m for m in messages)

    def test_access_log_off_by_default(self, running_server, caplog):
        with caplog.at_level("INFO", logger="repro.service.access"):
            urllib.request.urlopen(
                f"{running_server.base_url}/health").read()
        assert not [r for r in caplog.records
                    if r.name == "repro.service.access"]

    def test_caller_config_can_disable_telemetry(self, small_repository):
        from repro.core.config import SchemrConfig
        server = SchemrServer(small_repository,
                              config=SchemrConfig(telemetry_enabled=False))
        with server.running() as base_url:
            text = urllib.request.urlopen(
                f"{base_url}/metrics").read().decode()
        assert text == ""


class TestInternalErrorBoundary:
    def test_unexpected_error_returns_500_and_is_logged(
            self, small_repository, caplog):
        """A bug in the engine must produce a 500 *and* a traceback in
        the server log — the silent-500 path was unfixable from the
        access log alone."""
        server = SchemrServer(small_repository)
        engine = server._engine

        def explode(**_kwargs):
            raise RuntimeError("seeded engine bug")

        engine.search = explode
        with caplog.at_level("ERROR", logger="repro.service.server"):
            with server.running() as base_url:
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(
                        f"{base_url}/search?q=patient").read()
        assert excinfo.value.code == 500
        records = [r for r in caplog.records
                   if r.name == "repro.service.server"
                   and "unhandled error" in r.getMessage()]
        assert records, "500 was served without a server-side log"
        assert records[0].exc_info is not None  # full traceback kept
