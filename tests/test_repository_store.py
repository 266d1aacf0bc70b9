"""Unit tests for the SQLite schema repository."""

import sqlite3
import threading

import pytest

from repro.errors import RepositoryError
from repro.model.elements import Attribute
from repro.repository.store import SchemaRepository

from tests.conftest import build_clinic_schema

CLINIC_DDL = """
CREATE TABLE patient (id INTEGER PRIMARY KEY, height DECIMAL, gender CHAR);
CREATE TABLE visit (id INTEGER PRIMARY KEY,
                    patient_id INTEGER REFERENCES patient(id));
"""

CLINIC_XSD = """<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
 <xs:element name="clinic">
  <xs:complexType><xs:sequence>
   <xs:element name="name" type="xs:string"/>
  </xs:sequence></xs:complexType>
 </xs:element>
</xs:schema>"""


class TestCrud:
    def test_add_assigns_id(self, clinic_schema):
        with SchemaRepository.in_memory() as repo:
            schema_id = repo.add_schema(clinic_schema)
            assert schema_id == clinic_schema.schema_id
            assert repo.schema_count == 1

    def test_get_roundtrip(self, clinic_schema):
        with SchemaRepository.in_memory() as repo:
            schema_id = repo.add_schema(clinic_schema)
            loaded = repo.get_schema(schema_id)
            assert loaded.name == clinic_schema.name
            assert loaded.schema_id == schema_id
            assert loaded.entity_count == clinic_schema.entity_count
            assert len(loaded.foreign_keys) == \
                len(clinic_schema.foreign_keys)

    def test_get_missing_raises(self):
        with SchemaRepository.in_memory() as repo:
            with pytest.raises(RepositoryError):
                repo.get_schema(99)

    def test_update(self, clinic_schema):
        with SchemaRepository.in_memory() as repo:
            schema_id = repo.add_schema(clinic_schema)
            clinic_schema.entity("patient").add_attribute(
                Attribute("weight"))
            repo.update_schema(clinic_schema)
            assert repo.get_schema(schema_id).entity("patient") \
                .has_attribute("weight")

    def test_update_without_id_raises(self, clinic_schema):
        with SchemaRepository.in_memory() as repo:
            with pytest.raises(RepositoryError, match="no id"):
                repo.update_schema(clinic_schema)

    def test_update_missing_raises(self, clinic_schema):
        with SchemaRepository.in_memory() as repo:
            clinic_schema.schema_id = 404
            with pytest.raises(RepositoryError):
                repo.update_schema(clinic_schema)

    def test_delete(self, clinic_schema):
        with SchemaRepository.in_memory() as repo:
            schema_id = repo.add_schema(clinic_schema)
            repo.delete_schema(schema_id)
            assert repo.schema_count == 0
            assert not repo.has_schema(schema_id)

    def test_delete_missing_raises(self):
        with SchemaRepository.in_memory() as repo:
            with pytest.raises(RepositoryError):
                repo.delete_schema(1)

    def test_iter_schemas_ordered(self):
        with SchemaRepository.in_memory() as repo:
            for i in range(3):
                repo.add_schema(build_clinic_schema(name=f"s{i}"))
            names = [s.name for s in repo.iter_schemas()]
            assert names == ["s0", "s1", "s2"]

    def test_list_schema_ids(self, clinic_schema):
        with SchemaRepository.in_memory() as repo:
            schema_id = repo.add_schema(clinic_schema)
            assert repo.list_schema_ids() == [schema_id]


class TestChangeLog:
    def test_operations_logged_in_order(self, clinic_schema):
        with SchemaRepository.in_memory() as repo:
            schema_id = repo.add_schema(clinic_schema)
            repo.update_schema(clinic_schema)
            repo.delete_schema(schema_id)
            changes = repo.changes_since(0)
            assert [(c[1], c[2]) for c in changes] == [
                (schema_id, "add"), (schema_id, "update"),
                (schema_id, "delete")]

    def test_changes_since_cursor(self, clinic_schema):
        with SchemaRepository.in_memory() as repo:
            repo.add_schema(clinic_schema)
            first = repo.changes_since(0)
            assert len(first) == 1
            assert repo.changes_since(first[-1][0]) == []


class TestImports:
    def test_import_ddl(self):
        with SchemaRepository.in_memory() as repo:
            schema_id = repo.import_ddl(CLINIC_DDL, name="clinic",
                                        description="demo")
            schema = repo.get_schema(schema_id)
            assert schema.name == "clinic"
            assert schema.description == "demo"
            assert len(schema.foreign_keys) == 1

    def test_import_xsd(self):
        with SchemaRepository.in_memory() as repo:
            schema_id = repo.import_xsd(CLINIC_XSD, name="clinic_x")
            assert repo.get_schema(schema_id).source == "xsd"

    def test_import_webtable(self):
        with SchemaRepository.in_memory() as repo:
            schema_id = repo.import_webtable("presidents",
                                             ["name", "party"])
            assert repo.get_schema(schema_id).attribute_count == 2


class TestPersistence:
    def test_survives_reopen(self, tmp_path, clinic_schema):
        db_path = tmp_path / "repo.db"
        repo = SchemaRepository(db_path)
        schema_id = repo.add_schema(clinic_schema)
        repo.close()
        reopened = SchemaRepository(db_path)
        assert reopened.get_schema(schema_id).name == clinic_schema.name
        reopened.close()


class TestEngineIntegration:
    def test_engine_searches_repository(self, small_repository,
                                        paper_keywords):
        engine = small_repository.engine()
        results = engine.search(keywords=paper_keywords)
        assert results[0].name == "clinic_emr"

    def test_engine_sees_new_schemas(self, small_repository):
        engine = small_repository.engine()
        assert engine.search(keywords="warpdrive") == []
        small_repository.import_webtable("spaceship",
                                         ["warpdrive", "crew"])
        engine = small_repository.engine()  # refreshes the index
        results = engine.search(keywords="warpdrive")
        assert results and results[0].name == "spaceship"


class TestReadConnection:
    """Schema fetches read committed rows only, beside a writer."""

    def _park_writer(self, repo, monkeypatch):
        """Make the next write stop inside its transaction, after its
        statements and before its commit; returns (parked, release)."""
        parked, release = threading.Event(), threading.Event()
        log_change = repo._log_change

        def parking_log_change(*args):
            log_change(*args)
            parked.set()
            assert release.wait(5)

        monkeypatch.setattr(repo, "_log_change", parking_log_change)
        return parked, release

    def test_get_schema_never_reads_an_uncommitted_update(
            self, tmp_path, monkeypatch):
        with SchemaRepository(tmp_path / "repo.db") as repo:
            schema = build_clinic_schema()
            schema_id = repo.add_schema(schema)
            parked, release = self._park_writer(repo, monkeypatch)
            schema.name = "renamed_clinic"
            writer = threading.Thread(target=repo.update_schema,
                                      args=(schema,))
            writer.start()
            try:
                assert parked.wait(5)
                assert repo.get_schema(schema_id).name == "clinic_emr"
            finally:
                release.set()
                writer.join(5)
            assert repo.get_schema(schema_id).name == "renamed_clinic"

    def test_in_memory_fetch_waits_for_the_commit(self, monkeypatch):
        """One connection: the fetch takes the lock, so it sees the
        row as committed after the writer finishes, never mid-way."""
        with SchemaRepository.in_memory() as repo:
            schema = build_clinic_schema()
            schema_id = repo.add_schema(schema)
            parked, release = self._park_writer(repo, monkeypatch)
            schema.name = "renamed_clinic"
            writer = threading.Thread(target=repo.update_schema,
                                      args=(schema,))
            writer.start()
            fetched = []
            reader = threading.Thread(target=lambda: fetched.append(
                repo.get_schema(schema_id).name))
            try:
                assert parked.wait(5)
                reader.start()
                reader.join(0.2)
                assert fetched == []  # queued behind the open write
            finally:
                release.set()
                writer.join(5)
                reader.join(5)
            assert fetched == ["renamed_clinic"]

    def test_read_connection_is_query_only_and_closed(self, tmp_path):
        repo = SchemaRepository(tmp_path / "repo.db")
        read_conn = repo._read_conn
        assert read_conn is not repo.connection
        assert read_conn.execute("PRAGMA query_only").fetchone()[0] == 1
        repo.close()
        with pytest.raises(sqlite3.ProgrammingError):
            read_conn.execute("SELECT 1")
