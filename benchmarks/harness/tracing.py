"""In-memory spans recorded from the harness's own files.

The traced run wraps each call into a layer's public function in
:meth:`Tracer.span`.  Spans stay in memory and are written out once,
when the run ends; a layer's self time is its span minus the part its
child spans cover.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator


class Tracer:
    """Collects (id, name, start, end, parent, request) span records."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, request: int | None = None) -> Iterator[dict]:
        """Time one call; nests under the thread's open span, if any.

        ``request`` ties every span of one request together; children
        inherit it from their parent.
        """
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        record = {"name": name, "parent": None, "request": request}
        if parent is not None:
            record["parent"] = parent["id"]
            if request is None:
                record["request"] = parent["request"]
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def durations_ms(self, name: str) -> list[float]:
        """Wall duration of every finished span called ``name``."""
        return [(s["end"] - s["start"]) * 1e3
                for s in self.spans if s["name"] == name and "end" in s]

    def self_times_ms(self) -> dict[str, list[float]]:
        """Per span name: duration minus the time its children cover."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None and "end" in s:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, list[float]] = defaultdict(list)
        for s in self.spans:
            if "end" in s:
                out[s["name"]].append(
                    (s["end"] - s["start"] - child_time[s["id"]]) * 1e3)
        return dict(out)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans) + "\n", encoding="utf-8")
