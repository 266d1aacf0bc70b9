"""Shared fixtures: the paper's worked-example schemas and small corpora."""

from __future__ import annotations

import pytest

from repro.model.elements import Attribute, Entity, ForeignKey
from repro.model.schema import Schema
from repro.repository.store import SchemaRepository


def build_clinic_schema(name: str = "clinic_emr") -> Schema:
    """The Figure 4 schema: case -> patient, case -> doctor.

    ``case`` and ``patient`` are FK-connected through ``case``;
    ``doctor`` connects to ``case`` too, so all three share one
    neighborhood, while any added isolated entity is unrelated.
    """
    schema = Schema(name=name, description="health clinic records",
                    source="test")
    schema.add_entity(Entity("patient", [
        Attribute("id", "INTEGER", primary_key=True, nullable=False),
        Attribute("name", "VARCHAR(100)"),
        Attribute("height", "DECIMAL(5,2)"),
        Attribute("gender", "CHAR(1)"),
    ]))
    schema.add_entity(Entity("doctor", [
        Attribute("id", "INTEGER", primary_key=True, nullable=False),
        Attribute("name", "VARCHAR(100)"),
        Attribute("gender", "CHAR(1)"),
        Attribute("specialty", "VARCHAR(50)"),
    ]))
    schema.add_entity(Entity("case", [
        Attribute("id", "INTEGER", primary_key=True, nullable=False),
        Attribute("patient", "INTEGER"),
        Attribute("doctor", "INTEGER"),
        Attribute("diagnosis", "TEXT"),
    ]))
    schema.add_foreign_key(ForeignKey("case", "patient", "patient", "id"))
    schema.add_foreign_key(ForeignKey("case", "doctor", "doctor", "id"))
    return schema


def build_hr_schema(name: str = "hr_payroll") -> Schema:
    schema = Schema(name=name, description="employee payroll", source="test")
    schema.add_entity(Entity("employee", [
        Attribute("id", "INTEGER", primary_key=True, nullable=False),
        Attribute("first_name", "VARCHAR(50)"),
        Attribute("last_name", "VARCHAR(50)"),
        Attribute("salary", "DECIMAL(10,2)"),
        Attribute("dept_id", "INTEGER"),
    ]))
    schema.add_entity(Entity("department", [
        Attribute("id", "INTEGER", primary_key=True, nullable=False),
        Attribute("name", "VARCHAR(50)"),
        Attribute("manager", "VARCHAR(50)"),
    ]))
    schema.add_foreign_key(
        ForeignKey("employee", "dept_id", "department", "id"))
    return schema


def build_conservation_schema(name: str = "conservation_monitoring") -> Schema:
    schema = Schema(name=name, description="species observations",
                    source="test")
    schema.add_entity(Entity("site", [
        Attribute("id", "INTEGER", primary_key=True, nullable=False),
        Attribute("site_name", "VARCHAR(80)"),
        Attribute("latitude", "REAL"),
        Attribute("longitude", "REAL"),
    ]))
    schema.add_entity(Entity("observation", [
        Attribute("id", "INTEGER", primary_key=True, nullable=False),
        Attribute("site_id", "INTEGER"),
        Attribute("species", "VARCHAR(100)"),
        Attribute("obs_date", "DATE"),
        Attribute("count", "INTEGER"),
    ]))
    schema.add_foreign_key(ForeignKey("observation", "site_id", "site", "id"))
    return schema


class _ColdProfile:
    """What tightness reads from a match profile, derived from the
    schema alone — the scorer's own unprofiled derivation."""

    def __init__(self, schema: Schema) -> None:
        from repro.scoring.neighborhood import NeighborhoodIndex
        self.entity_of = schema.element_entities()
        self._neighborhoods = NeighborhoodIndex(schema)

    def neighborhood_index(self):
        return self._neighborhoods


def cold_engine(index, ensemble=None, config=None):
    """A reference engine whose phase 2 uses no match profile and no
    profile cache: each candidate is decoded from its payload and
    matched from scratch, as the library's unprofiled matcher calls do.
    Differential tests pit the serving engine against it."""
    import time

    from repro.core.config import SchemrConfig
    from repro.core.engine import (InProcessExecutor, SchemrEngine,
                                   served_payload)
    from repro.telemetry import Telemetry

    class ColdExecutor(InProcessExecutor):
        def _match_one(self, query, hit, scratch, cheap_only=False):
            candidate = Schema.from_payload(
                served_payload(self.searcher.index, hit.doc_id))
            columns = self._guard.match(query, candidate,
                                        cheap_only=cheap_only)
            return (hit, candidate, columns, columns.element_scores(),
                    _ColdProfile(candidate))

    config = config or SchemrConfig()
    telemetry = Telemetry.from_config(config)
    executor = ColdExecutor(index, ensemble, config, time.monotonic,
                            telemetry.metrics)
    return SchemrEngine(config=config, telemetry=telemetry,
                        executor=executor, owns_telemetry=True)


@pytest.fixture
def clinic_schema() -> Schema:
    return build_clinic_schema()


@pytest.fixture
def hr_schema() -> Schema:
    return build_hr_schema()


@pytest.fixture
def conservation_schema() -> Schema:
    return build_conservation_schema()


@pytest.fixture
def small_repository() -> SchemaRepository:
    """A repository holding the three fixture schemas, indexed."""
    repo = SchemaRepository.in_memory()
    repo.add_schema(build_clinic_schema())
    repo.add_schema(build_hr_schema())
    repo.add_schema(build_conservation_schema())
    repo.reindex()
    yield repo
    repo.close()


#: The paper's running query: "patient, height, gender, diagnosis".
PAPER_KEYWORDS = ["patient", "height", "gender", "diagnosis"]


@pytest.fixture
def paper_keywords() -> list[str]:
    return list(PAPER_KEYWORDS)


# -- lock-order sanitizer (opt-in) -------------------------------------------
#
# ``SCHEMR_LOCK_SANITIZER=1 pytest ...`` runs the whole session with the
# runtime lock-order sanitizer instrumenting the lock-owning project
# classes (repro.analysis.sanitizer).  An observed inversion raises
# LockOrderInversion at the acquisition site, and the session fixture
# re-asserts at teardown so inversions swallowed by worker threads still
# fail the run.  The CI ``sanitizer-smoke`` job runs the chaos and
# sharding suites this way.

import os


@pytest.fixture(scope="session", autouse=True)
def _lock_order_sanitizer():
    if os.environ.get("SCHEMR_LOCK_SANITIZER") != "1":
        yield None
        return
    from repro.analysis.sanitizer import (LockOrderSanitizer,
                                          instrument_project)
    from repro.telemetry.metrics import MetricsRegistry

    sanitizer = LockOrderSanitizer(metrics=MetricsRegistry())
    instrument_project(sanitizer)
    try:
        yield sanitizer
    finally:
        sanitizer.uninstrument()
        assert not sanitizer.inversions, sanitizer.report()
