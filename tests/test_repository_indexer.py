"""Unit tests for the offline repository indexer."""

import threading

from repro.matching.profile import ProfileStore
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


class TestProfileSync:
    """The changelog-driven refresh keeps the profile cache honest."""

    def test_refresh_builds_profiles_eagerly(self):
        with SchemaRepository.in_memory() as repo:
            schema_id = repo.add_schema(build_clinic_schema())
            store = ProfileStore(repo)
            indexer = RepositoryIndexer(repo, profile_store=store)
            indexer.refresh()
            assert schema_id in store  # built before any query asks

    def test_update_via_changelog_refreshes_profile(self):
        with SchemaRepository.in_memory() as repo:
            schema = build_clinic_schema()
            schema_id = repo.add_schema(schema)
            store = ProfileStore(repo)
            indexer = RepositoryIndexer(repo, profile_store=store)
            indexer.refresh()
            old_paths = store.get_profile(schema_id).element_paths

            from repro.model.elements import Attribute, Entity
            schema.add_entity(Entity("lab_result", [
                Attribute("id", "INTEGER", primary_key=True),
                Attribute("value", "DECIMAL(8,2)"),
            ]))
            repo.update_schema(schema)
            indexer.refresh()
            new_paths = store.get_profile(schema_id).element_paths
            assert new_paths != old_paths
            assert "lab_result.value" in new_paths
            # The cached schema moved in step with the profile.
            assert "lab_result" in store.get_schema(schema_id).entities

    def test_delete_via_changelog_drops_profile(self):
        with SchemaRepository.in_memory() as repo:
            schema_id = repo.add_schema(build_clinic_schema())
            store = ProfileStore(repo)
            indexer = RepositoryIndexer(repo, profile_store=store)
            indexer.refresh()
            repo.delete_schema(schema_id)
            indexer.refresh()
            assert schema_id not in store

    def test_repository_crud_invalidates_lazily_cached_entries(self):
        """The repository's own mutation methods invalidate the shared
        store immediately — a stale schema is never served, even before
        the next indexer refresh."""
        with SchemaRepository.in_memory() as repo:
            schema = build_clinic_schema()
            schema_id = repo.add_schema(schema)
            store = repo.profile_store()
            store.get_profile(schema_id)  # lazily cached
            schema.name = "renamed_clinic"
            repo.update_schema(schema)
            assert schema_id not in store
            assert store.get_schema(schema_id).name == "renamed_clinic"
            repo.delete_schema(schema_id)
            assert schema_id not in store

    def test_engine_search_sees_post_update_state(self):
        with SchemaRepository.in_memory() as repo:
            schema = build_clinic_schema()
            repo.add_schema(schema)
            engine = repo.engine()
            assert engine.search(keywords="patient height")[0].name == \
                "clinic_emr"
            schema.name = "renamed_clinic"
            repo.update_schema(schema)
            engine = repo.engine()  # refreshes index + profiles
            assert engine.search(keywords="patient height")[0].name == \
                "renamed_clinic"

    def test_rebuild_repopulates_profiles(self):
        with SchemaRepository.in_memory() as repo:
            a = repo.add_schema(build_clinic_schema())
            b = repo.add_schema(build_hr_schema())
            store = ProfileStore(repo)
            indexer = RepositoryIndexer(repo, profile_store=store)
            indexer.rebuild()
            assert a in store and b in store


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


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        with SchemaRepository.in_memory() as repo:
            repo.add_schema(build_clinic_schema())
            indexer = RepositoryIndexer(repo)
            indexer.refresh()
            path = tmp_path / "segment.jsonl"
            indexer.save(path)

            fresh = RepositoryIndexer(repo)
            fresh.load(path)
            assert fresh.index.document_count == 1
            # Cursor advanced to head: no replay of old changes.
            assert fresh.refresh() == 0
            # New changes still picked up.
            repo.add_schema(build_hr_schema())
            assert fresh.refresh() == 1


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
