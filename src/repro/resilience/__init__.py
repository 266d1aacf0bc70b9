"""``repro.resilience`` — deadlines, degradation, breakers, shedding.

The resilience layer keeps an interactive schemr deployment answering
in human time when parts of it misbehave:

* :mod:`repro.resilience.deadline` — per-search wall-clock
  :class:`Deadline` (from ``SchemrConfig.search_budget_seconds``) and
  the :class:`DegradationLadder` that trades result quality for
  latency: shrink the phase-2 pool, drop to the cheap name matcher, or
  return the phase-1 TF/IDF ranking outright.  Every response carries
  its ``degradation_level``.
* :mod:`repro.resilience.breaker` — :class:`CircuitBreaker` around
  each matcher and the sqlite-backed schema source: open after N
  consecutive failures, timed half-open probes.
* :mod:`repro.resilience.retry` — exponential backoff with full jitter
  for transient ``database is locked`` errors.
* :mod:`repro.resilience.shedding` — the server's bounded
  :class:`AdmissionController`: structured 429 + ``Retry-After``
  instead of queueing into oblivion.
* :mod:`repro.resilience.faults` — the deterministic
  :class:`FaultInjector` (module-global :data:`FAULTS`) powering the
  chaos suite (``tests/test_resilience_chaos.py``) and the crash sweep.
* :mod:`repro.resilience.guards` — :class:`GuardedEnsemble`, the
  breaker-aware ensemble wrapper the engine matches through.
"""

from __future__ import annotations

from repro.errors import (
    AdmissionRejected,
    CircuitOpenError,
    DeadlineExceeded,
    ResilienceError,
)
from repro.resilience.breaker import (
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    CircuitBreaker,
)
from repro.resilience.deadline import (
    DEGRADE_NAME_ONLY,
    DEGRADE_NONE,
    DEGRADE_PHASE1_ONLY,
    DEGRADE_REDUCED_POOL,
    Deadline,
    DegradationLadder,
    degradation_name,
)
from repro.resilience.faults import FAULTS, FaultInjector, FaultRecord
from repro.resilience.guards import GuardedEnsemble
from repro.resilience.retry import (
    RetryPolicy,
    is_transient_sqlite_error,
    retry_transient,
)
from repro.resilience.shedding import AdmissionController

__all__ = [
    "AdmissionController",
    "AdmissionRejected",
    "CircuitBreaker",
    "CircuitOpenError",
    "DEGRADE_NAME_ONLY",
    "DEGRADE_NONE",
    "DEGRADE_PHASE1_ONLY",
    "DEGRADE_REDUCED_POOL",
    "Deadline",
    "DeadlineExceeded",
    "DegradationLadder",
    "FAULTS",
    "FaultInjector",
    "FaultRecord",
    "GuardedEnsemble",
    "ResilienceError",
    "RetryPolicy",
    "STATE_CLOSED",
    "STATE_HALF_OPEN",
    "STATE_OPEN",
    "degradation_name",
    "is_transient_sqlite_error",
    "retry_transient",
]
