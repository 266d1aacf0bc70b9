"""Unit tests for the offline repository indexer."""

import threading

import pytest

from repro.errors import SchemaNotFound
from repro.matching.profile import ProfileStore, SchemaMatchProfile
from repro.repository.indexer import RepositoryIndexer
from repro.repository.store import SchemaRepository

from tests.conftest import build_clinic_schema, build_hr_schema


class TestRefresh:
    def test_initial_refresh_indexes_everything(self):
        with SchemaRepository.in_memory() as repo:
            repo.add_schema(build_clinic_schema())
            repo.add_schema(build_hr_schema())
            indexer = RepositoryIndexer(repo)
            applied = indexer.refresh()
            assert applied == 2
            assert indexer.index.document_count == 2

    def test_refresh_is_incremental(self):
        with SchemaRepository.in_memory() as repo:
            repo.add_schema(build_clinic_schema())
            indexer = RepositoryIndexer(repo)
            indexer.refresh()
            assert indexer.refresh() == 0  # nothing new
            repo.add_schema(build_hr_schema())
            assert indexer.refresh() == 1

    def test_update_reindexes(self):
        with SchemaRepository.in_memory() as repo:
            schema = build_clinic_schema()
            schema_id = repo.add_schema(schema)
            indexer = RepositoryIndexer(repo)
            indexer.refresh()
            schema.name = "renamed_clinic"
            repo.update_schema(schema)
            indexer.refresh()
            assert indexer.index.document(schema_id).title == \
                "renamed_clinic"

    def test_delete_removes_document(self):
        with SchemaRepository.in_memory() as repo:
            schema_id = repo.add_schema(build_clinic_schema())
            indexer = RepositoryIndexer(repo)
            indexer.refresh()
            repo.delete_schema(schema_id)
            indexer.refresh()
            assert indexer.index.document_count == 0

    def test_add_then_delete_between_refreshes_collapses(self):
        with SchemaRepository.in_memory() as repo:
            indexer = RepositoryIndexer(repo)
            schema_id = repo.add_schema(build_clinic_schema())
            repo.delete_schema(schema_id)
            applied = indexer.refresh()
            assert indexer.index.document_count == 0
            assert applied == 0

    def test_multiple_updates_collapse_to_one_operation(self):
        with SchemaRepository.in_memory() as repo:
            schema = build_clinic_schema()
            repo.add_schema(schema)
            indexer = RepositoryIndexer(repo)
            indexer.refresh()
            for name in ("a", "b", "c"):
                schema.name = name
                repo.update_schema(schema)
            assert indexer.refresh() == 1
            assert indexer.index.document(schema.schema_id).title == "c"


class TestRefreshBesideAWriter:
    """A refresh's cursor never moves past a change its fetches cannot
    see yet, so a write still open during a refresh is replayed by the
    next one."""

    @pytest.mark.parametrize("op", ["add", "update"])
    def test_write_open_during_refresh_is_indexed_after_commit(
            self, tmp_path, monkeypatch, op):
        with SchemaRepository(tmp_path / "repo.db") as repo:
            schema = build_clinic_schema()
            repo.add_schema(schema)
            indexer = RepositoryIndexer(repo)
            indexer.refresh()
            parked, release = threading.Event(), threading.Event()
            log_change = repo._log_change

            def parking_log_change(*args):
                log_change(*args)
                parked.set()
                assert release.wait(5)

            monkeypatch.setattr(repo, "_log_change", parking_log_change)
            schema.name = "renamed_clinic"
            write = repo.update_schema if op == "update" else \
                lambda s: repo.add_schema(_named_clinic("renamed_clinic"))
            writer = threading.Thread(target=write, args=(schema,))
            writer.start()
            try:
                assert parked.wait(5)
                indexer.refresh()
            finally:
                release.set()
                writer.join(5)
            assert not writer.is_alive()
            indexer.refresh()
            ids = repo.list_schema_ids()
            assert indexer.index.document_count == len(ids)
            assert "renamed_clinic" in {
                indexer.index.document(i).title for i in ids}


class TestRefreshBesideReaders:
    """Schema fetches on the same handle never hold a refresh back."""

    def test_refresh_reaches_the_committed_head_beside_readers(
            self, tmp_path):
        """Three threads fetch schemas through the handle the indexer
        reads; every refresh after a commit must still reach the
        committed head of the change log."""
        with SchemaRepository(tmp_path / "repo.db") as repo:
            first = repo.add_schema(build_clinic_schema())
            indexer = RepositoryIndexer(repo)
            indexer.refresh()
            stop = threading.Event()
            finished = []

            def read():
                while not stop.is_set():
                    repo.get_schema(first)
                finished.append(True)

            readers = [threading.Thread(target=read) for _ in range(3)]
            for reader in readers:
                reader.start()
            behind = []
            try:
                for round_ in range(200):
                    repo.add_schema(_named_clinic(f"clinic_{round_}"))
                    indexer.refresh()
                    head = repo.connection.execute(
                        "SELECT MAX(change_id) FROM changelog"
                    ).fetchone()[0]
                    if indexer.last_change_id != head:
                        behind.append(round_)
            finally:
                stop.set()
                for reader in readers:
                    reader.join(5)
            assert finished == [True] * 3  # no reader died
            assert behind == []
            assert indexer.index.document_count == 201


def _named_clinic(name):
    schema = build_clinic_schema()
    schema.name = name
    return schema


def _count_profile_builds(monkeypatch):
    """Spy on :meth:`SchemaMatchProfile.build`; returns the list each
    build appends its schema id to."""
    builds = []
    real = SchemaMatchProfile.build

    def spy(schema, *args, **kwargs):
        builds.append(schema.schema_id)
        return real(schema, *args, **kwargs)

    monkeypatch.setattr(SchemaMatchProfile, "build", staticmethod(spy))
    return builds


def _lookup(store, index, schema_id):
    """What phase 2 does: the candidate from the served payload."""
    return store.lookup(schema_id, index.document(schema_id).payload)


class TestProfileSync:
    """The profile cache needs nothing from the indexer: its entries are
    keyed by payload, and a refresh publishes the payloads."""

    def test_refresh_builds_no_profiles_and_drops_changed_ids(
            self, monkeypatch):
        """A batch of 30 adds and 20 updates costs no profile builds and
        leaves the store alone; each changed id's entry is superseded
        by its next lookup from the index, the rest still hit."""
        with SchemaRepository.in_memory() as repo:
            old = [_named_clinic(f"clinic_{i}") for i in range(25)]
            for schema in old:
                repo.add_schema(schema)
            store = ProfileStore()
            indexer = RepositoryIndexer(repo)
            indexer.refresh()
            for schema in old:
                _lookup(store, indexer.index, schema.schema_id)  # resident
            for i in range(30):
                repo.add_schema(_named_clinic(f"new_{i}"))
            for schema in old[:20]:
                schema.name += "_v2"
                repo.update_schema(schema)
            builds = _count_profile_builds(monkeypatch)
            assert indexer.refresh() == 50
            assert builds == []
            assert len(store) == 25
            hits = store.hits
            for schema in old:
                _lookup(store, indexer.index, schema.schema_id)
            assert sorted(builds) == sorted(s.schema_id for s in old[:20])
            assert store.hits == hits + 5
            assert _lookup(store, indexer.index,
                           old[0].schema_id)[0].name == "clinic_0_v2"

    def test_update_via_changelog_refreshes_profile(self):
        with SchemaRepository.in_memory() as repo:
            schema = build_clinic_schema()
            schema_id = repo.add_schema(schema)
            store = ProfileStore()
            indexer = RepositoryIndexer(repo)
            indexer.refresh()
            old_paths = _lookup(store, indexer.index,
                                schema_id)[1].element_paths

            from repro.model.elements import Attribute, Entity
            schema.add_entity(Entity("lab_result", [
                Attribute("id", "INTEGER", primary_key=True),
                Attribute("value", "DECIMAL(8,2)"),
            ]))
            repo.update_schema(schema)
            # Committed, not refreshed: the served generation still
            # holds the old payload.
            assert _lookup(store, indexer.index,
                           schema_id)[1].element_paths == old_paths
            indexer.refresh()
            candidate, profile = _lookup(store, indexer.index, schema_id)
            assert profile.element_paths != old_paths
            assert "lab_result.value" in profile.element_paths
            # The cached schema moved in step with the profile.
            assert "lab_result" in candidate.entities

    def test_delete_via_changelog_drops_profile(self):
        with SchemaRepository.in_memory() as repo:
            schema_id = repo.add_schema(build_clinic_schema())
            engine = repo.engine()
            assert engine.schema(schema_id).name == "clinic_emr"
            repo.delete_schema(schema_id)
            assert engine.schema(schema_id).name == "clinic_emr"
            repo.indexer().refresh()
            with pytest.raises(SchemaNotFound):
                engine.schema(schema_id)

    def test_repository_crud_invalidates_lazily_cached_entries(self):
        """By-id reads take the payload from the repository, so a
        stale schema is never served, though nothing invalidates."""
        with SchemaRepository.in_memory() as repo:
            schema = build_clinic_schema()
            schema_id = repo.add_schema(schema)
            store = repo.profile_store()
            store.get_profile(schema_id)  # lazily cached
            schema.name = "renamed_clinic"
            repo.update_schema(schema)
            assert store.get_schema(schema_id).name == "renamed_clinic"
            repo.delete_schema(schema_id)
            with pytest.raises(SchemaNotFound):
                store.get_schema(schema_id)

    def test_engine_search_sees_post_update_state(self):
        with SchemaRepository.in_memory() as repo:
            schema = build_clinic_schema()
            repo.add_schema(schema)
            engine = repo.engine()
            assert engine.search(keywords="patient height")[0].name == \
                "clinic_emr"
            schema.name = "renamed_clinic"
            repo.update_schema(schema)
            engine = repo.engine()  # refreshes the index
            assert engine.search(keywords="patient height")[0].name == \
                "renamed_clinic"

    def test_rebuild_clears_profiles_without_building(self, monkeypatch):
        """A rebuild builds no profiles and leaves the store alone: its
        documents carry the same payloads, so resident entries hit."""
        with SchemaRepository.in_memory() as repo:
            a = repo.add_schema(build_clinic_schema())
            repo.add_schema(build_hr_schema())
            store = ProfileStore(repo)
            store.get_profile(a)
            indexer = RepositoryIndexer(repo)
            builds = _count_profile_builds(monkeypatch)
            assert indexer.rebuild() == 2
            assert builds == [] and len(store) == 1
            _lookup(store, indexer.index, a)
            assert builds == [] and store.hits == 1

    def test_refresh_drops_entries_changed_through_another_handle(
            self, tmp_path):
        """A write through another handle reaches searches exactly when
        the refresh publishes it."""
        path = tmp_path / "repo.db"
        with SchemaRepository(path) as repo, \
                SchemaRepository(path) as other:
            schema_id = repo.add_schema(build_clinic_schema())
            engine = repo.engine()
            assert engine.schema(schema_id).name == "clinic_emr"
            schema = other.get_schema(schema_id)
            schema.name = "renamed_clinic"
            other.update_schema(schema)
            assert engine.schema(schema_id).name == "clinic_emr"
            assert repo.indexer().refresh() == 1
            assert engine.schema(schema_id).name == "renamed_clinic"


class TestRebuild:
    def test_rebuild_from_scratch(self):
        with SchemaRepository.in_memory() as repo:
            repo.add_schema(build_clinic_schema())
            repo.add_schema(build_hr_schema())
            indexer = RepositoryIndexer(repo)
            count = indexer.rebuild()
            assert count == 2
            assert indexer.refresh() == 0  # cursor advanced by rebuild

    def test_rebuild_segment_index_keeps_writer_lock_order(self, tmp_path):
        """Rebuild takes the commit lock before the read lock, like
        flush and merge (the sanitizer suite checks the order)."""
        with SchemaRepository.in_memory() as repo:
            repo.add_schema(build_clinic_schema())
            indexer = RepositoryIndexer(repo, segment_dir=tmp_path / "seg")
            indexer.refresh()
            repo.add_schema(build_hr_schema())
            assert indexer.rebuild() == 2
            assert indexer.index.document_count == 2
            assert indexer.index.delta_document_count == 0  # flushed
            assert indexer.refresh() == 0


class TestScheduledRuns:
    def test_run_scheduled_with_max_refreshes(self):
        with SchemaRepository.in_memory() as repo:
            repo.add_schema(build_clinic_schema())
            indexer = RepositoryIndexer(repo)
            total = indexer.run_scheduled(interval_seconds=0.001,
                                          max_refreshes=3)
            assert total == 1  # only the initial add existed

    def test_stop_terminates_loop(self):
        with SchemaRepository.in_memory() as repo:
            repo.add_schema(build_clinic_schema())
            indexer = RepositoryIndexer(repo)
            thread = threading.Thread(
                target=indexer.run_scheduled,
                kwargs={"interval_seconds": 0.01})
            thread.start()
            indexer.stop()
            thread.join(timeout=5)
            assert not thread.is_alive()

    def test_concurrent_searches_during_scheduled_refresh(self):
        """Background refreshes must not corrupt concurrent reads.

        The scheduled indexer mutates the live index while a searcher
        iterates postings; each batch is built off the index lock and
        published under it in one step, and searches serialize against
        that step, so every query sees a consistent generation — never
        a half-applied refresh.
        """
        from repro.index.searcher import IndexSearcher

        with SchemaRepository.in_memory() as repo:
            repo.add_schema(build_clinic_schema())
            indexer = RepositoryIndexer(repo)
            indexer.refresh()
            searcher = IndexSearcher(indexer.index)
            errors: list[BaseException] = []

            def run_queries() -> None:
                try:
                    for _ in range(200):
                        hits = searcher.search(
                            ["patient", "height", "gender"], top_n=10)
                        for hit in hits:
                            # Title resolution exercises the doc store
                            # against concurrent replace/remove.
                            assert hit.title
                except BaseException as exc:  # lint: fault-boundary (collected errors re-raised by the asserting thread)
                    errors.append(exc)

            refresher = threading.Thread(
                target=indexer.run_scheduled,
                kwargs={"interval_seconds": 0.0005,
                        "max_refreshes": 500})
            reader = threading.Thread(target=run_queries)
            refresher.start()
            reader.start()
            # Churn the repository while both threads run.
            for i in range(30):
                schema = build_clinic_schema(f"clinic_{i}")
                schema_id = repo.add_schema(schema)
                if i % 3 == 0:
                    repo.delete_schema(schema_id)
                elif i % 3 == 1:
                    schema.name = f"clinic_{i}_renamed"
                    repo.update_schema(schema)
            reader.join(timeout=30)
            indexer.stop()
            refresher.join(timeout=30)
            assert not reader.is_alive() and not refresher.is_alive()
            assert errors == []
            # After a final refresh the searcher sees the end state.
            indexer.refresh()
            hits = searcher.search(["patient"], top_n=100)
            assert len(hits) == indexer.index.document_count
