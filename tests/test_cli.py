"""Tests for the schemr command-line interface."""

import json

import pytest

from repro.cli import main

CLINIC_DDL = """
CREATE TABLE patient (
  id INTEGER PRIMARY KEY,
  height DECIMAL(5,2),
  gender CHAR(1)
);
CREATE TABLE visit (
  id INTEGER PRIMARY KEY,
  patient_id INTEGER REFERENCES patient(id),
  diagnosis TEXT
);
"""


@pytest.fixture
def db(tmp_path):
    path = str(tmp_path / "repo.db")
    assert main(["init", path]) == 0
    return path


@pytest.fixture
def populated_db(db, tmp_path):
    ddl_file = tmp_path / "clinic.sql"
    ddl_file.write_text(CLINIC_DDL)
    assert main(["import", db, str(ddl_file), "--name", "clinic"]) == 0
    return db


class TestInit:
    def test_creates_file(self, tmp_path, capsys):
        path = str(tmp_path / "new.db")
        assert main(["init", path]) == 0
        assert "initialized" in capsys.readouterr().out

    def test_refuses_overwrite(self, db, capsys):
        assert main(["init", db]) == 1
        assert "already exists" in capsys.readouterr().err


class TestImport:
    def test_import_reports_counts(self, db, tmp_path, capsys):
        ddl_file = tmp_path / "clinic.sql"
        ddl_file.write_text(CLINIC_DDL)
        assert main(["import", db, str(ddl_file), "--name", "clinic"]) == 0
        out = capsys.readouterr().out
        assert "imported 'clinic'" in out
        assert "2 entities" in out

    def test_import_missing_repo(self, tmp_path, capsys):
        ddl_file = tmp_path / "x.sql"
        ddl_file.write_text(CLINIC_DDL)
        assert main(["import", str(tmp_path / "ghost.db"),
                     str(ddl_file)]) == 1
        assert "does not exist" in capsys.readouterr().err

    def test_import_xsd_autodetected(self, db, tmp_path, capsys):
        xsd = tmp_path / "x.xsd"
        xsd.write_text(
            '<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">'
            '<xs:element name="site" type="xs:string"/></xs:schema>')
        assert main(["import", db, str(xsd)]) == 0
        assert "imported" in capsys.readouterr().out


class TestGenerateAndIndex:
    def test_generate(self, db, capsys):
        assert main(["generate", db, "--count", "50", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "filtered 50 raw schemas" in out
        assert "stored" in out

    def test_index_reports_stats(self, populated_db, capsys):
        assert main(["index", populated_db]) == 0
        out = capsys.readouterr().out
        assert "documents" in out


class TestSearch:
    def test_search_prints_table(self, populated_db, capsys):
        assert main(["search", populated_db, "--keywords",
                     "patient height gender"]) == 0
        out = capsys.readouterr().out
        assert "clinic" in out
        assert "Score" in out

    def test_search_with_trace(self, populated_db, capsys):
        assert main(["search", populated_db, "--keywords", "patient",
                     "--trace"]) == 0
        assert "candidate_extraction" in capsys.readouterr().out

    def test_search_with_fragment_file(self, populated_db, tmp_path,
                                       capsys):
        fragment = tmp_path / "frag.sql"
        fragment.write_text("CREATE TABLE patient (height DECIMAL);")
        assert main(["search", populated_db, "--fragment",
                     str(fragment)]) == 0
        assert "clinic" in capsys.readouterr().out

    def test_empty_search_fails_cleanly(self, populated_db, capsys):
        assert main(["search", populated_db]) == 1
        assert "error" in capsys.readouterr().err


class TestShowAndExport:
    def test_show_ascii(self, populated_db, capsys):
        assert main(["show", populated_db, "1"]) == 0
        out = capsys.readouterr().out
        assert "patient" in out
        assert "[entity]" in out

    def test_show_svg_to_file(self, populated_db, tmp_path, capsys):
        out_file = tmp_path / "schema.svg"
        assert main(["show", populated_db, "1", "--layout", "tree",
                     "--out", str(out_file)]) == 0
        assert out_file.read_text().startswith("<svg")

    def test_show_radial_stdout(self, populated_db, capsys):
        assert main(["show", populated_db, "1", "--layout", "radial"]) == 0
        assert "<svg" in capsys.readouterr().out

    def test_show_focus_drill_in(self, populated_db, capsys):
        assert main(["show", populated_db, "1", "--focus", "patient"]) == 0
        out = capsys.readouterr().out
        assert "height" in out
        assert "visit" not in out

    def test_show_missing_schema(self, populated_db, capsys):
        assert main(["show", populated_db, "99"]) == 1

    def test_export_json(self, populated_db, capsys):
        assert main(["export", populated_db, "1"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["name"] == "clinic"

    def test_export_graphml_to_file(self, populated_db, tmp_path):
        out_file = tmp_path / "schema.graphml"
        assert main(["export", populated_db, "1", "--format", "graphml",
                     "--out", str(out_file)]) == 0
        assert "graphml" in out_file.read_text()


class TestStats:
    def test_repository_mode_text_summary(self, populated_db, capsys):
        assert main(["stats", populated_db,
                     "--warmup", "patient height, diagnosis"]) == 0
        out = capsys.readouterr().out
        assert f"repository: {populated_db} (1 schemas)" in out
        assert "searches:        2" in out
        assert "query cache:" in out
        assert "p50 ms" in out

    def test_repository_mode_prometheus(self, populated_db, capsys):
        assert main(["stats", populated_db, "--warmup", "patient",
                     "--format", "prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE schemr_searches_total counter" in out
        assert "schemr_searches_total 1" in out

    def test_no_warmup_still_reports_index(self, populated_db, capsys):
        assert main(["stats", populated_db]) == 0
        out = capsys.readouterr().out
        assert "searches:        0" in out
        assert "index documents:  1" in out

    def test_stopword_warmup_is_not_fatal(self, populated_db, capsys):
        assert main(["stats", populated_db, "--warmup", "the, ,of"]) == 0
        assert "searches:" in capsys.readouterr().out

    def test_url_mode_scrapes_running_server(self, populated_db, capsys):
        from repro.repository.store import SchemaRepository
        from repro.service.server import SchemrServer
        with SchemaRepository(populated_db) as repo:
            server = SchemrServer(repo)
            with server.running() as base_url:
                assert main(["stats", base_url]) == 0
                stats_out = capsys.readouterr().out
                assert main(["stats", base_url,
                             "--format", "prometheus"]) == 0
                metrics_out = capsys.readouterr().out
        assert "<stats>" in stats_out
        assert "# TYPE schemr_index_documents gauge" in metrics_out

    def test_missing_repository_fails(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "absent.db")]) == 1
        assert "" != capsys.readouterr().err
