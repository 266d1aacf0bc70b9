"""Runtime lock-order sanitizer: the dynamic half of ``lock-order``.

The static ``lock-order`` rule proves the *declared* acquisition graph
acyclic; this module checks the orders a test run actually exercises.
Project locks are replaced with recording proxies that keep a
per-thread stack of held locks and a global first-seen edge map: the
first time lock ``B`` is acquired while ``A`` is held, the edge
``A -> B`` is recorded with a witness (thread name and source
location).  If the reverse edge was ever observed, that is a lock-order
inversion — two threads interleaving those two code paths can deadlock
— and the sanitizer fails loudly even though *this* run got lucky with
scheduling.

Locks are aggregated by ``Class.attr`` (matching the static
:class:`~repro.analysis.callgraph.LockKey` labels), so acquiring two
*different* instances of the same class's lock in sequence is not an
edge; re-acquiring the *same* non-reentrant lock object is reported as
a self-deadlock before it blocks forever.

Opt-in: nothing in production imports this module.  The test suite
enables it with ``SCHEMR_LOCK_SANITIZER=1`` (see ``tests/conftest.py``
and the CI ``sanitizer-smoke`` job), which instruments the sharding,
replication, index, and telemetry classes via
:func:`instrument_project`.

Exported telemetry (when given a registry):
``schemr_sanitizer_locks_wrapped`` (gauge),
``schemr_sanitizer_order_edges`` (gauge),
``schemr_sanitizer_inversions_total`` (counter).
"""

from __future__ import annotations

import functools
import threading
import time
import traceback

__all__ = [
    "LockOrderInversion",
    "LockOrderSanitizer",
    "SanitizedCondition",
    "SanitizedLock",
    "instrument_project",
]

_LOCK_TYPE = type(threading.Lock())
_RLOCK_TYPE = type(threading.RLock())


class LockOrderInversion(AssertionError):
    """Two locks were acquired in both orders (or one re-entered)."""


class _HeldStack(threading.local):
    """Per-thread stack of currently-held sanitized locks."""

    def __init__(self) -> None:
        self.entries: list[object] = []


def _witness() -> str:
    """Thread name plus the acquiring frame, for inversion reports."""
    for frame in reversed(traceback.extract_stack(limit=12)):
        if "repro/analysis/sanitizer" not in frame.filename.replace(
                "\\", "/"):
            return (f"thread {threading.current_thread().name!r} at "
                    f"{frame.filename}:{frame.lineno} in {frame.name}")
    return f"thread {threading.current_thread().name!r}"


class LockOrderSanitizer:
    """Records lock-acquisition orders and flags inversions.

    One sanitizer instance is shared by every wrapped lock; its own
    bookkeeping lock is a plain (unwrapped) ``threading.Lock`` held
    only for dict updates, never across a wrapped acquisition.
    """

    def __init__(self, metrics=None, raise_on_inversion: bool = True
                 ) -> None:
        self.raise_on_inversion = raise_on_inversion
        self._meta = threading.Lock()
        #: (first, second) -> witness of the first time the order was seen.
        self._edges: dict[tuple[str, str], str] = {}
        #: Human-readable inversion reports, in detection order.
        self.inversions: list[str] = []
        self._held = _HeldStack()
        self._wrapped = 0
        self._patched: list[tuple[type, object]] = []
        if metrics is not None:
            self._m_wrapped = metrics.gauge(
                "schemr_sanitizer_locks_wrapped",
                "Project locks wrapped by the lock-order sanitizer")
            self._m_edges = metrics.gauge(
                "schemr_sanitizer_order_edges",
                "Distinct lock-acquisition-order edges observed")
            self._m_inversions = metrics.counter(
                "schemr_sanitizer_inversions_total",
                "Lock-order inversions detected at runtime")
        else:
            from repro.telemetry.metrics import (NULL_COUNTER, NULL_GAUGE)
            self._m_wrapped = NULL_GAUGE
            self._m_edges = NULL_GAUGE
            self._m_inversions = NULL_COUNTER

    # -- wrapping -------------------------------------------------------

    def wrap(self, value: object, name: str):
        """A sanitized stand-in for ``value``, or None if not a lock."""
        if isinstance(value, (SanitizedLock, SanitizedCondition)):
            return None
        wrapped = None
        if isinstance(value, threading.Condition):
            wrapped = SanitizedCondition(value, name, self)
        elif isinstance(value, _LOCK_TYPE):
            wrapped = SanitizedLock(value, name, self, reentrant=False)
        elif isinstance(value, _RLOCK_TYPE):
            wrapped = SanitizedLock(value, name, self, reentrant=True)
        if wrapped is not None:
            with self._meta:
                self._wrapped += 1
                self._m_wrapped.set(self._wrapped)
        return wrapped

    def wrap_object(self, obj: object, name: str | None = None) -> int:
        """Replace every lock attribute of ``obj``; returns the count."""
        base = name or type(obj).__name__
        count = 0
        for attr, value in list(vars(obj).items()):
            wrapped = self.wrap(value, f"{base}.{attr}")
            if wrapped is not None:
                object.__setattr__(obj, attr, wrapped)
                count += 1
        return count

    def instrument_class(self, cls: type) -> None:
        """Patch ``cls.__init__`` to wrap each new instance's locks."""
        original = cls.__init__
        sanitizer = self

        @functools.wraps(original)
        def wrapping_init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            sanitizer.wrap_object(obj, type(obj).__name__)

        cls.__init__ = wrapping_init
        self._patched.append((cls, original))

    def uninstrument(self) -> None:
        """Restore every ``__init__`` patched by :meth:`instrument_class`."""
        while self._patched:
            cls, original = self._patched.pop()
            cls.__init__ = original

    # -- introspection ---------------------------------------------------

    @property
    def locks_wrapped(self) -> int:
        return self._wrapped

    def edges(self) -> dict[tuple[str, str], str]:
        with self._meta:
            return dict(self._edges)

    def report(self) -> str:
        """Multi-line summary suitable for a failing assertion message."""
        lines = [f"{self._wrapped} lock(s) wrapped, "
                 f"{len(self._edges)} order edge(s), "
                 f"{len(self.inversions)} inversion(s)"]
        lines.extend(self.inversions)
        return "\n".join(lines)

    # -- recording (called by the proxies) -------------------------------

    def _before_acquire(self, proxy) -> None:
        if proxy.reentrant:
            return
        for entry in self._held.entries:
            if entry is proxy:
                message = (f"lock-order inversion: non-reentrant lock "
                           f"{proxy.name} re-acquired while already "
                           f"held ({_witness()}); this deadlocks")
                self._record_inversion(message)
                return

    def _after_acquire(self, proxy) -> None:
        entries = self._held.entries
        if proxy.reentrant and any(entry is proxy for entry in entries):
            # Re-entering a lock this thread already holds cannot
            # block, so it orders nothing against the locks taken
            # since the first acquisition.
            entries.append(proxy)
            return
        inversion = None
        witness = _witness()
        with self._meta:
            for entry in entries:
                if entry.name == proxy.name:
                    continue
                edge = (entry.name, proxy.name)
                if edge not in self._edges:
                    self._edges[edge] = witness
                    self._m_edges.set(len(self._edges))
                reverse = (proxy.name, entry.name)
                if reverse in self._edges and inversion is None:
                    inversion = (
                        f"lock-order inversion: {entry.name} -> "
                        f"{proxy.name} ({witness}) conflicts with "
                        f"{proxy.name} -> {entry.name} "
                        f"({self._edges[reverse]})")
        entries.append(proxy)
        if inversion is not None:
            self._record_inversion(inversion)

    def _after_release(self, proxy) -> None:
        entries = self._held.entries
        for i in range(len(entries) - 1, -1, -1):
            if entries[i] is proxy:
                del entries[i]
                return

    def _record_inversion(self, message: str) -> None:
        with self._meta:
            self.inversions.append(message)
        self._m_inversions.inc()
        if self.raise_on_inversion:
            raise LockOrderInversion(message)


class SanitizedLock:
    """Recording proxy around a ``Lock`` or ``RLock``."""

    def __init__(self, inner, name: str, sanitizer: LockOrderSanitizer,
                 reentrant: bool) -> None:
        self.inner = inner
        self.name = name
        self.reentrant = reentrant
        self._sanitizer = sanitizer

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self._sanitizer._before_acquire(self)
        acquired = self.inner.acquire(blocking, timeout)
        if acquired:
            self._sanitizer._after_acquire(self)
        return acquired

    def release(self) -> None:
        self.inner.release()
        self._sanitizer._after_release(self)

    def locked(self) -> bool:
        return self.inner.locked()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc) -> bool:
        self.release()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SanitizedLock {self.name} wrapping {self.inner!r}>"


class SanitizedCondition:
    """Recording proxy around a ``Condition``.

    ``wait`` releases the underlying lock while parked, so the held
    stack drops the condition for the duration and re-records it (and
    any new order edges) on wake-up.
    """

    reentrant = False

    def __init__(self, inner: threading.Condition, name: str,
                 sanitizer: LockOrderSanitizer) -> None:
        self.inner = inner
        self.name = name
        self._sanitizer = sanitizer

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self._sanitizer._before_acquire(self)
        acquired = self.inner.acquire(blocking, timeout)
        if acquired:
            self._sanitizer._after_acquire(self)
        return acquired

    def release(self) -> None:
        self.inner.release()
        self._sanitizer._after_release(self)

    def wait(self, timeout: float | None = None) -> bool:
        self._sanitizer._after_release(self)
        try:
            return self.inner.wait(timeout)
        finally:
            self._sanitizer._after_acquire(self)

    def wait_for(self, predicate, timeout: float | None = None):
        # Re-implemented over the sanitized wait() so the held stack
        # stays accurate across every park/wake cycle.
        endtime = None
        waittime = timeout
        result = predicate()
        while not result:
            if waittime is not None:
                if endtime is None:
                    endtime = time.monotonic() + waittime
                else:
                    waittime = endtime - time.monotonic()
                    if waittime <= 0:
                        break
            self.wait(waittime)
            result = predicate()
        return result

    def notify(self, n: int = 1) -> None:
        self.inner.notify(n)

    def notify_all(self) -> None:
        self.inner.notify_all()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc) -> bool:
        self.release()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SanitizedCondition {self.name} wrapping {self.inner!r}>"


def instrument_project(sanitizer: LockOrderSanitizer) -> list[type]:
    """Instrument the lock-owning project classes; returns them.

    The list mirrors the static analyzer's lock inventory: every class
    the ``lock-order`` rule sees edges through is wrapped, so a test
    run under the sanitizer exercises the same graph dynamically.
    """
    from repro.index.cache import QueryCache
    from repro.index.inverted import InvertedIndex
    from repro.index.segments.segmented import SegmentedIndex
    from repro.index.segments.sharded import ShardedSegmentIndex
    from repro.replication.replica import ReplicaSyncer
    from repro.resilience.breaker import CircuitBreaker
    from repro.sharding.engine import ShardExecutor
    from repro.sharding.pool import WorkerHandle
    from repro.telemetry.metrics import MetricsRegistry

    classes: list[type] = [
        QueryCache,
        InvertedIndex,
        SegmentedIndex,
        ShardedSegmentIndex,
        ReplicaSyncer,
        CircuitBreaker,
        ShardExecutor,
        WorkerHandle,
        MetricsRegistry,
    ]
    for cls in classes:
        sanitizer.instrument_class(cls)
    return classes


def _seed_inversion() -> int:  # pragma: no cover - exercised by CI
    """Acquire two locks in both orders; exit 1 when caught.

    The CI ``sanitizer-smoke`` job runs ``python -m
    repro.analysis.sanitizer --seed-inversion`` and *requires* the
    nonzero exit: a zero exit means the sanitizer went blind.
    """
    sanitizer = LockOrderSanitizer()
    first = sanitizer.wrap(threading.Lock(), "Fixture.first")
    second = sanitizer.wrap(threading.Lock(), "Fixture.second")
    with first:
        with second:
            pass
    try:
        with second:
            with first:
                pass
    except LockOrderInversion as exc:
        print(f"sanitizer caught the seeded inversion: {exc}")
        return 1
    print("sanitizer MISSED the seeded inversion", flush=True)
    return 0


if __name__ == "__main__":  # pragma: no cover - CI entry point
    import sys

    if "--seed-inversion" in sys.argv[1:]:
        sys.exit(_seed_inversion())
    print(__doc__)
