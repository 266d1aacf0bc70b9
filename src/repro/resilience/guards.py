"""Breaker-guarded wrappers around the match-phase dependencies.

:class:`GuardedEnsemble` runs the ensemble's matchers as
:meth:`~repro.matching.ensemble.MatcherEnsemble.match` does, but keeps
their score columns (a :class:`~repro.matching.ensemble.ColumnMatch`,
no matrices) and runs each matcher under its own
:class:`~repro.resilience.breaker.CircuitBreaker`:
a matcher that keeps failing is cut out of the ensemble (its weight
simply drops from the combination) instead of failing every search,
and half-open probes let it back in once it recovers.  A ``cheap_only``
match collapses the ensemble to the cheapest matcher — the name
matcher — which is what the degradation ladder's ``name_only`` level
runs.

When *every* matcher is refused or fails, the guarded match raises
:class:`~repro.errors.CircuitOpenError`; the engine reacts by falling
back to the phase-1 ranking rather than erroring the search.
"""

from __future__ import annotations

import logging
import time
from typing import TYPE_CHECKING, Callable

from repro.errors import CircuitOpenError
from repro.matching.ensemble import ColumnMatch, MatcherEnsemble
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.faults import FAULTS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.matching.base import MatchKeys
    from repro.matching.profile import MatchScratch
    from repro.model.query import QueryGraph
    from repro.model.schema import Schema

logger = logging.getLogger(__name__)

#: The matcher the ``name_only`` degradation level keeps (falls back to
#: the ensemble's first matcher when absent).
CHEAP_MATCHER_NAME = "name"


class GuardedEnsemble:
    """A :class:`MatcherEnsemble` with one circuit breaker per matcher."""

    def __init__(self, ensemble: MatcherEnsemble,
                 failure_threshold: int = 5,
                 reset_seconds: float = 30.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self._ensemble = ensemble
        self._breakers = {
            matcher.name: CircuitBreaker(
                f"matcher.{matcher.name}",
                failure_threshold=failure_threshold,
                reset_seconds=reset_seconds, clock=clock)
            for matcher in ensemble.matchers
        }
        names = ensemble.matcher_names
        self._cheap_name = (CHEAP_MATCHER_NAME
                            if CHEAP_MATCHER_NAME in names else names[0])

    @property
    def ensemble(self) -> MatcherEnsemble:
        return self._ensemble

    @property
    def breakers(self) -> dict[str, CircuitBreaker]:
        """name -> breaker (live objects; shared with the engine)."""
        return self._breakers

    @property
    def cheap_matcher_name(self) -> str:
        return self._cheap_name

    def match(self, query: "QueryGraph", candidate: "Schema",
              profile: "MatchKeys | None" = None,
              scratch: "MatchScratch | None" = None,
              cheap_only: bool = False) -> ColumnMatch:
        """The ensemble's columns, minus matchers whose breakers are open.

        With ``cheap_only`` the ensemble is reduced to the name matcher
        (the ``name_only`` degradation level).  Matcher exceptions are
        recorded on their breaker and the matcher skipped for this
        candidate; :class:`CircuitOpenError` is raised only when no
        matcher at all produced its columns.  No matrix is built: the
        caller reads element scores off the columns and asks for
        matrices only for the results it materialises.
        """
        ensemble = self._ensemble
        weights = ensemble.weights
        parts: list[tuple[str, float, list]] = []
        for matcher in ensemble.matchers:
            if cheap_only and matcher.name != self._cheap_name:
                continue
            breaker = self._breakers[matcher.name]
            if not breaker.allow():
                continue
            try:
                FAULTS.hit(f"matcher.{matcher.name}")
                columns = matcher.columns(query, candidate,
                                          profile=profile, scratch=scratch)
            except Exception as exc:
                breaker.record_failure()
                logger.debug("matcher %s failed (%s); skipped for this "
                             "candidate", matcher.name, exc)
                continue
            breaker.record_success()
            parts.append((matcher.name, weights[matcher.name], columns))
        if not parts:
            raise CircuitOpenError(
                "no matcher available: all breakers open or failing",
                breaker="ensemble")
        if all(weight == 0 for _name, weight, _columns in parts):
            # Every surviving matcher carries zero weight (the weighted
            # ones are all broken); fall back to uniform combination so
            # degraded results still rank.
            parts = [(name, 1.0, columns) for name, _weight, columns in parts]
        return ColumnMatch.of(query, candidate, profile, scratch, parts)
