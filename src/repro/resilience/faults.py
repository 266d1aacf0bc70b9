"""Deterministic fault injection at named pipeline sites.

Library code declares *sites* — ``FAULTS.hit("store.get_schema")`` —
which are free no-ops in production (one attribute load and a truthiness
check on an empty dict).  The chaos suite arms an injector with
failures, delays, or arbitrary hooks per site:

    FAULTS.inject("store.get_schema",
                  error=sqlite3.OperationalError("database is locked"),
                  times=2)

Delays go through the injector's ``sleep`` callable, so a test that
pairs the injector with a fake clock advances time without real
sleeping — the suite stays deterministic and fast.  ``times=None``
means "every hit"; an exhausted plan disarms itself.

The declared site catalog lives in :data:`KNOWN_SITES` below (plus the
parameterized :data:`SITE_FAMILIES` like ``matcher.<name>``); the
``site-catalog`` lint rule reconciles every ``FAULTS.hit`` /
``FAULTS.inject`` literal against it in both directions, so the
catalog can never drift from the instrumented code.

The ``segments.*`` and ``replication.*`` sites exist for the
crash-injection recovery harness: armed with a ``SimulatedCrash``-style
error they model a process dying at exactly that point, and the
recovery property is that reopening the directory (with the orphan
sweep) always yields the last *committed* generation, byte-identical.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable

#: The declared catalog of every named fault site: site -> the guarded
#: operation.  ``FAULTS.hit`` literals anywhere in ``src/`` and
#: ``FAULTS.inject`` literals in the chaos suites must name an entry
#: here (or extend a family from :data:`SITE_FAMILIES`), and every
#: entry must be hit somewhere — the ``site-catalog`` lint rule of
#: :mod:`repro.analysis` enforces both directions in CI, the same
#: round-trip discipline the metric catalog established.
KNOWN_SITES: dict[str, str] = {
    "store.get_schema": "by-id sqlite payload fetch (never on a search)",
    "store.add_schema": "sqlite insert in SchemaRepository",
    "store.iter_schemas": "bulk schema iteration feeding rebuilds",
    "store.changes_since": "changelog + payload read feeding a refresh",
    "profile_store.lookup": "ProfileStore miss: payload decode + build",
    "engine.phase1": "candidate extraction call in the engine",
    "engine.phase2": "between the phases in the engine, any executor",
    "engine.match_one": "per-candidate scoring step in the engine",
    "indexer.refresh": "changelog application batch",
    "segments.write.torn": "mid-write of a segment file body",
    "segments.write.pre_rename":
        "segment durable under tmp name, not renamed",
    "segments.manifest.pre_rename":
        "MANIFEST.json tmp written, not renamed",
    "segments.manifest.post_rename":
        "MANIFEST.json renamed, caller not returned",
    "segments.flush.pre_commit":
        "flushed segment on disk, manifest not committed",
    "segments.merge.pre_commit":
        "merged segment on disk, manifest not committed",
    "replication.pull.chunk":
        "after each pulled chunk lands in .tmp",
    "replication.pull.pre_rename":
        "pulled segment verified, not yet renamed",
    "replication.pull.pre_commit":
        "all segments pulled, manifest not committed",
}

#: Parameterized site families: a dynamically built site name is legal
#: exactly when its literal head matches one of these prefixes (the
#: per-matcher wrapping in GuardedEnsemble is the one user).
SITE_FAMILIES: dict[str, str] = {
    "matcher.": "one matcher's match() inside GuardedEnsemble",
}

#: The crash-injection subset: sites armed with a process-death error
#: by the recovery harness.  The invariant each one witnesses is that
#: reopening after a crash there yields the last *committed*
#: generation, byte-identically.  Must be a subset of KNOWN_SITES.
CRASH_SITES: frozenset[str] = frozenset((
    "segments.write.torn",
    "segments.write.pre_rename",
    "segments.manifest.pre_rename",
    "segments.manifest.post_rename",
    "segments.flush.pre_commit",
    "segments.merge.pre_commit",
    "replication.pull.chunk",
    "replication.pull.pre_rename",
    "replication.pull.pre_commit",
))


@dataclass
class _FaultPlan:
    """What to do when a site is hit."""

    error: BaseException | None = None
    delay_seconds: float = 0.0
    hook: Callable[[], None] | None = None
    #: Remaining activations; None = unlimited.
    times: int | None = None
    triggered: int = 0


@dataclass(slots=True)
class FaultRecord:
    """One site's observed traffic while the injector was armed."""

    hits: int = 0
    triggered: int = 0


class FaultInjector:
    """Arms failures/delays at named sites; disarmed it costs ~nothing."""

    def __init__(self, sleep: Callable[[float], None] = time.sleep) -> None:
        self._sleep = sleep
        self._lock = threading.Lock()
        self._plans: dict[str, _FaultPlan] = {}
        self._records: dict[str, FaultRecord] = {}

    # -- arming ----------------------------------------------------------

    def inject(self, site: str, *, error: BaseException | None = None,
               delay_seconds: float = 0.0,
               hook: Callable[[], None] | None = None,
               times: int | None = None) -> None:
        """Arm ``site``: optionally delay, run ``hook``, raise ``error``.

        ``times`` bounds how many hits trigger (None = all).  Re-arming
        a site replaces its previous plan.
        """
        if error is None and delay_seconds == 0.0 and hook is None:
            raise ValueError(
                f"fault plan for {site!r} does nothing: supply error, "
                "delay_seconds, or hook")
        if delay_seconds < 0:
            raise ValueError(
                f"delay_seconds must be >= 0, got {delay_seconds}")
        if times is not None and times < 1:
            raise ValueError(f"times must be >= 1, got {times}")
        with self._lock:
            self._plans[site] = _FaultPlan(
                error=error, delay_seconds=delay_seconds, hook=hook,
                times=times)

    def disarm(self, site: str) -> None:
        with self._lock:
            self._plans.pop(site, None)

    def reset(self) -> None:
        """Disarm everything and forget hit counts."""
        with self._lock:
            self._plans.clear()
            self._records.clear()

    def set_sleep(self, sleep: Callable[[float], None]) -> None:
        """Swap the delay implementation (tests: fake-clock advance)."""
        self._sleep = sleep

    # -- observation ------------------------------------------------------

    @property
    def armed_sites(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._plans))

    def record(self, site: str) -> FaultRecord:
        """Traffic counters for ``site`` (zeros when never hit)."""
        with self._lock:
            return self._records.get(site, FaultRecord())

    def hits(self, site: str) -> int:
        return self.record(site).hits

    def triggered(self, site: str) -> int:
        return self.record(site).triggered

    # -- the instrumented-code side ---------------------------------------

    def hit(self, site: str) -> None:
        """Called by library code at an instrumented site.

        Fast path: with nothing armed this is a dict truthiness check.
        """
        if not self._plans:  # lint: unlocked (GIL-atomic truthiness check; the armed path re-checks under the lock)
            return
        with self._lock:
            record = self._records.setdefault(site, FaultRecord())
            record.hits += 1
            plan = self._plans.get(site)
            if plan is None:
                return
            if plan.times is not None:
                if plan.times <= 0:
                    return
                plan.times -= 1
                if plan.times == 0:
                    self._plans.pop(site, None)
            plan.triggered += 1
            record.triggered += 1
            delay = plan.delay_seconds
            hook = plan.hook
            error = plan.error
        # Delay/hook/raise happen outside the lock: a hook that blocks
        # (e.g. on an Event, to hold a server slot open) must not
        # serialize other sites.
        if delay:
            self._sleep(delay)
        if hook is not None:
            hook()
        if error is not None:
            raise error


#: The process-wide injector instrumented code imports.  Disarmed by
#: default; chaos tests arm it and must ``reset()`` in teardown.
FAULTS = FaultInjector()
