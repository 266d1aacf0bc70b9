"""Unit tests for the resilience primitives (fake clocks, no sleeps)."""

from __future__ import annotations

import random
import sqlite3
import threading

import pytest

from repro.errors import (AdmissionRejected, CircuitOpenError,
                          DeadlineExceeded)
from repro.resilience import (DEGRADE_NAME_ONLY, DEGRADE_NONE,
                              DEGRADE_PHASE1_ONLY, DEGRADE_REDUCED_POOL,
                              STATE_CLOSED, STATE_HALF_OPEN, STATE_OPEN,
                              AdmissionController, CircuitBreaker, Deadline,
                              DegradationLadder, FaultInjector, RetryPolicy,
                              degradation_name, is_transient_sqlite_error,
                              retry_transient)


class FakeClock:
    """A monotonic clock advanced by hand."""

    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# -- Deadline ----------------------------------------------------------------

class TestDeadline:
    def test_unlimited_never_expires(self):
        clock = FakeClock()
        deadline = Deadline(None, clock=clock)
        clock.advance(1e9)
        assert not deadline.expired()
        assert deadline.remaining() == float("inf")
        assert deadline.fraction_remaining() == 1.0
        deadline.check("anywhere")  # no raise

    def test_elapsed_and_remaining_track_the_clock(self):
        clock = FakeClock()
        deadline = Deadline(2.0, clock=clock)
        assert deadline.remaining() == pytest.approx(2.0)
        clock.advance(0.5)
        assert deadline.elapsed() == pytest.approx(0.5)
        assert deadline.remaining() == pytest.approx(1.5)
        assert deadline.fraction_remaining() == pytest.approx(0.75)

    def test_check_raises_past_budget_with_site(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        clock.advance(1.01)
        assert deadline.expired()
        with pytest.raises(DeadlineExceeded, match="phase-2"):
            deadline.check("phase-2 candidate loop")

    def test_remaining_never_negative(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        clock.advance(5.0)
        assert deadline.remaining() == 0.0
        assert deadline.fraction_remaining() == 0.0

    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError):
            Deadline(0.0)
        with pytest.raises(ValueError):
            Deadline(-1.0)

    def test_unlimited_constructor(self):
        assert not Deadline.unlimited().limited


class TestDegradationLadder:
    def test_level_thresholds(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        ladder = DegradationLadder()
        assert ladder.level_for(deadline) == DEGRADE_NONE
        clock.advance(0.55)  # 45% remaining
        assert ladder.level_for(deadline) == DEGRADE_REDUCED_POOL
        clock.advance(0.25)  # 20% remaining
        assert ladder.level_for(deadline) == DEGRADE_NAME_ONLY
        clock.advance(0.15)  # 5% remaining
        assert ladder.level_for(deadline) == DEGRADE_PHASE1_ONLY

    def test_unlimited_deadline_never_degrades(self):
        assert DegradationLadder().level_for(
            Deadline.unlimited()) == DEGRADE_NONE

    def test_rejects_unordered_fractions(self):
        with pytest.raises(ValueError):
            DegradationLadder(reduced_pool_fraction=0.2,
                              name_only_fraction=0.5)

    def test_level_names(self):
        assert degradation_name(DEGRADE_NONE) == "none"
        assert degradation_name(DEGRADE_REDUCED_POOL) == "reduced_pool"
        assert degradation_name(DEGRADE_NAME_ONLY) == "name_only"
        assert degradation_name(DEGRADE_PHASE1_ONLY) == "phase1_only"
        with pytest.raises(ValueError):
            degradation_name(7)


# -- CircuitBreaker ----------------------------------------------------------

class TestCircuitBreaker:
    def make(self, clock, threshold=3, reset=10.0, probes=1):
        return CircuitBreaker("test", failure_threshold=threshold,
                              reset_seconds=reset, half_open_probes=probes,
                              clock=clock)

    def test_opens_after_threshold_consecutive_failures(self):
        breaker = self.make(FakeClock())
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == STATE_CLOSED
        breaker.record_failure()
        assert breaker.state == STATE_OPEN
        assert breaker.open_count == 1
        assert not breaker.allow()
        assert breaker.rejected_count == 1

    def test_success_resets_the_failure_streak(self):
        breaker = self.make(FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == STATE_CLOSED

    def test_half_open_after_cooldown_then_close_on_success(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.state == STATE_HALF_OPEN
        assert breaker.allow()          # the probe
        assert not breaker.allow()      # only one probe admitted
        breaker.record_success()
        assert breaker.state == STATE_CLOSED
        assert breaker.allow()

    def test_half_open_failure_reopens(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == STATE_OPEN
        assert breaker.open_count == 2

    def test_retry_after_counts_down_the_cooldown(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        assert breaker.retry_after() == pytest.approx(10.0)
        clock.advance(4.0)
        assert breaker.retry_after() == pytest.approx(6.0)
        clock.advance(7.0)
        assert breaker.retry_after() == 0.0

    def test_call_raises_structured_error_when_open(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            with pytest.raises(RuntimeError):
                breaker.call(self._boom_expecting, breaker)
        with pytest.raises(CircuitOpenError) as err:
            breaker.call(lambda: "never runs")
        assert err.value.breaker == "test"
        assert err.value.retry_after > 0

    def _boom_expecting(self, breaker):
        # helper so call() records the failure itself
        raise RuntimeError("boom")

    def test_call_records_failure_and_reraises(self):
        breaker = self.make(FakeClock())
        with pytest.raises(RuntimeError):
            breaker.call(self._boom_expecting, breaker)
        assert breaker.failure_count == 1

    def test_reset_force_closes(self):
        breaker = self.make(FakeClock())
        for _ in range(3):
            breaker.record_failure()
        breaker.reset()
        assert breaker.state == STATE_CLOSED
        assert breaker.allow()

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker("x", failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker("x", reset_seconds=0)
        with pytest.raises(ValueError):
            CircuitBreaker("x", half_open_probes=0)


# -- retry -------------------------------------------------------------------

class TestRetry:
    def test_transient_classifier(self):
        assert is_transient_sqlite_error(
            sqlite3.OperationalError("database is locked"))
        assert is_transient_sqlite_error(
            sqlite3.OperationalError("database table is busy"))
        assert not is_transient_sqlite_error(
            sqlite3.OperationalError("disk I/O error"))
        assert not is_transient_sqlite_error(RuntimeError("locked"))

    def test_retries_transient_then_succeeds(self):
        sleeps: list[float] = []
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise sqlite3.OperationalError("database is locked")
            return "ok"

        result = retry_transient(flaky, RetryPolicy(attempts=4),
                                 sleep=sleeps.append,
                                 rng=random.Random(7))
        assert result == "ok"
        assert calls["n"] == 3
        assert len(sleeps) == 2

    def test_backoff_is_capped_exponential(self):
        policy = RetryPolicy(attempts=5, base_seconds=0.1,
                             multiplier=2.0, max_seconds=0.3)
        rng = random.Random(0)
        for attempt, cap in enumerate((0.1, 0.2, 0.3, 0.3)):
            for _ in range(50):
                delay = policy.backoff_seconds(attempt, rng)
                assert 0.0 <= delay <= cap

    def test_non_transient_propagates_immediately(self):
        calls = {"n": 0}

        def broken():
            calls["n"] += 1
            raise sqlite3.OperationalError("file is not a database")

        with pytest.raises(sqlite3.OperationalError):
            retry_transient(broken, sleep=lambda _: None)
        assert calls["n"] == 1

    def test_exhausted_attempts_raise_the_last_error(self):
        attempts: list[int] = []

        def always_locked():
            raise sqlite3.OperationalError("database is locked")

        with pytest.raises(sqlite3.OperationalError):
            retry_transient(always_locked, RetryPolicy(attempts=3),
                            sleep=lambda _: None,
                            on_retry=lambda i, exc: attempts.append(i))
        assert attempts == [0, 1]

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_seconds=0)
        with pytest.raises(ValueError):
            RetryPolicy(max_seconds=0.001, base_seconds=0.01)


# -- FaultInjector -----------------------------------------------------------

class TestFaultInjector:
    def test_disarmed_hit_is_a_noop(self):
        injector = FaultInjector()
        injector.hit("anything")  # no raise, no record
        assert injector.hits("anything") == 0

    def test_error_injection_with_times_bound(self):
        injector = FaultInjector()
        injector.inject("site", error=RuntimeError("chaos"), times=2)
        with pytest.raises(RuntimeError):
            injector.hit("site")
        with pytest.raises(RuntimeError):
            injector.hit("site")
        injector.hit("site")  # plan exhausted and disarmed
        assert injector.triggered("site") == 2
        assert injector.hits("site") >= 2
        assert "site" not in injector.armed_sites

    def test_delay_uses_injected_sleep(self):
        slept: list[float] = []
        injector = FaultInjector(sleep=slept.append)
        injector.inject("slow", delay_seconds=0.25)
        injector.hit("slow")
        assert slept == [0.25]

    def test_hook_runs_before_error(self):
        order: list[str] = []
        injector = FaultInjector()
        injector.inject("site", hook=lambda: order.append("hook"),
                        error=RuntimeError("x"))
        with pytest.raises(RuntimeError):
            injector.hit("site")
        assert order == ["hook"]

    def test_reset_disarms_and_forgets(self):
        injector = FaultInjector()
        injector.inject("a", error=RuntimeError("x"))
        injector.reset()
        injector.hit("a")
        assert injector.armed_sites == ()
        assert injector.hits("a") == 0

    def test_empty_plan_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector().inject("site")


# -- AdmissionController -----------------------------------------------------

class TestAdmissionController:
    def test_admits_up_to_max_concurrent(self):
        admission = AdmissionController(max_concurrent=2, queue_size=0)
        admission.acquire()
        admission.acquire()
        assert admission.active == 2
        with pytest.raises(AdmissionRejected) as err:
            admission.acquire()
        assert err.value.retry_after >= 1.0
        assert admission.rejected_total == 1
        admission.release()
        admission.acquire()  # freed slot admits again
        assert admission.admitted_total == 3

    def test_queue_timeout_sheds(self):
        admission = AdmissionController(max_concurrent=1, queue_size=4,
                                        queue_timeout_seconds=0.01)
        admission.acquire()
        with pytest.raises(AdmissionRejected):
            admission.acquire()
        assert admission.timed_out_total == 1
        assert admission.waiting == 0

    def test_context_manager_releases_on_error(self):
        admission = AdmissionController(max_concurrent=1, queue_size=0)
        with pytest.raises(RuntimeError):
            with admission.admitted():
                assert admission.active == 1
                raise RuntimeError("search blew up")
        assert admission.active == 0

    def test_release_without_acquire_raises(self):
        with pytest.raises(RuntimeError):
            AdmissionController().release()

    def test_burst_is_accounted_and_drains(self):
        """32 threads against 4 slots and no queue: every request is
        admitted or shed (none lost, none hung), and once the admitted
        ones finish every slot is back."""
        burst, slots = 32, 4
        admission = AdmissionController(max_concurrent=slots, queue_size=0)
        decided = threading.Semaphore(0)
        finish = threading.Event()
        outcomes: list[str] = []

        def request() -> None:
            try:
                with admission.admitted():
                    outcomes.append("admitted")
                    decided.release()
                    finish.wait(10.0)
            except AdmissionRejected:
                outcomes.append("shed")
                decided.release()

        threads = [threading.Thread(target=request) for _ in range(burst)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(burst):
                assert decided.acquire(timeout=10.0), "a request hung"
            assert outcomes.count("admitted") == slots
            assert outcomes.count("shed") == burst - slots
            assert admission.active == slots
        finally:
            finish.set()
            for thread in threads:
                thread.join(10.0)
        assert not any(thread.is_alive() for thread in threads)
        assert admission.active == 0
        assert admission.waiting == 0
        assert admission.admitted_total == slots
        assert admission.rejected_total == burst - slots

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_concurrent=0)
        with pytest.raises(ValueError):
            AdmissionController(queue_size=-1)
        with pytest.raises(ValueError):
            AdmissionController(queue_timeout_seconds=-0.1)
