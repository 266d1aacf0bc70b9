"""Closed- and open-loop load generators, one process, few threads.

A closed loop sends a connection's next request only after the previous
one completed (callers that wait for a reply): it measures capacity.
An open loop sends on a schedule whatever happened before (independent
users): each request is timed from when it was *due*, so a stall is
charged to every request it delayed, and how late the generator itself
ran is reported next to the latencies.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

Q = TypeVar("Q")

#: One request: returns whatever the oracle will check; raises on any
#: failure (transport, 4xx/5xx, shed).
Call = Callable[[Q], object]


@dataclass(slots=True)
class Sample:
    """What happened to one request."""

    index: int
    due: float
    start: float
    end: float
    result: object = None
    error: str | None = None

    @property
    def latency_ms(self) -> float:
        """Send to completion."""
        return (self.end - self.start) * 1e3

    @property
    def due_latency_ms(self) -> float:
        """Due time to completion (the open-loop latency)."""
        return (self.end - self.due) * 1e3

    @property
    def lag_ms(self) -> float:
        """How late the generator sent it."""
        return (self.start - self.due) * 1e3


def _issue(call: Call, queries: Sequence[Q], index: int,
           due: float | None, out: list[Sample]) -> None:
    start = time.perf_counter()
    sample = Sample(index=index, due=start if due is None else due,
                    start=start, end=start)
    try:
        sample.result = call(queries[index])
    except Exception as exc:  # the run goes on; the failure is counted
        sample.error = f"{type(exc).__name__}: {exc}"
    sample.end = time.perf_counter()
    out.append(sample)


def closed_loop(make_call: Callable[[], Call], queries: Sequence[Q],
                connections: int, seconds: float) -> list[Sample]:
    """``connections`` callers working through ``queries`` in order.

    Stops sending after ``seconds`` (or when the queries run out) and
    waits for the requests in flight.
    ``make_call`` builds one caller's request function (its own client
    or connection).
    """
    samples: list[Sample] = []
    cursor = iter(range(len(queries)))
    cursor_lock = threading.Lock()
    deadline = time.perf_counter() + seconds

    def caller() -> None:
        call = make_call()
        while time.perf_counter() < deadline:
            with cursor_lock:
                index = next(cursor, None)
            if index is None:
                return
            _issue(call, queries, index, None, samples)

    _run_threads(caller, connections)
    return samples


def open_loop(make_call: Callable[[], Call], queries: Sequence[Q],
              rate: float, seconds: float, senders: int = 1,
              stop: threading.Event | None = None) -> list[Sample]:
    """Send ``queries[i]`` at ``i / rate`` seconds, for ``seconds``.

    ``senders`` threads share the schedule; when all are busy the next
    request goes out late and its lag says so.  ``stop`` ends the loop
    early (the ingest reader stops when the writer is done).
    """
    samples: list[Sample] = []
    stop = stop or threading.Event()
    total = int(min(len(queries), rate * seconds))
    cursor = iter(range(total))
    cursor_lock = threading.Lock()
    started = time.perf_counter()

    def sender() -> None:
        call = make_call()
        while not stop.is_set():
            with cursor_lock:
                index = next(cursor, None)
            if index is None:
                return
            due = started + index / rate
            wait = due - time.perf_counter()
            if wait > 0 and stop.wait(wait):
                return
            _issue(call, queries, index, due, samples)

    _run_threads(sender, senders)
    return samples


def _run_threads(target: Callable[[], None], count: int) -> None:
    failures: list[BaseException] = []

    def guarded() -> None:
        try:
            target()
        except BaseException as exc:  # re-raised in the caller's thread
            failures.append(exc)

    threads = [threading.Thread(target=guarded, daemon=True)
               for _ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]
