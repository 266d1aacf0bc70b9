"""The correctness oracle: golden pages from a reference engine.

The reference is an in-process :class:`SchemrEngine` over an
*in-memory* index rebuilt from the same repository file, with a
profile cache that holds the whole corpus — so comparing a segment,
sharded or HTTP answer against it exercises the repository's
byte-identical-ranking invariant (memory = segments = shards = wire).
It runs outside every timed section.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from repro.core.config import SchemrConfig
from repro.core.results import SearchResult
from repro.repository.store import SchemaRepository

from benchmarks.harness.inputs import Query
from benchmarks.harness.loadgen import Sample

TOP_N = 10

Page = tuple[tuple[int, str], ...]


def page_of(results: Iterable[SearchResult]) -> Page:
    """Ranking ids and scores as the service serializes them."""
    return tuple((r.schema_id, f"{r.score:.6f}") for r in results)


class Oracle:
    """Golden pages for queries against one repository state."""

    def __init__(self, db: Path) -> None:
        self._repo = SchemaRepository(db)
        self._repo.profile_store(capacity=max(1, self._repo.schema_count))
        self._engine = self._repo.engine(config=SchemrConfig())
        self._pages: dict[Query, Page] = {}

    def page(self, query: Query) -> Page:
        if query not in self._pages:
            self._pages[query] = page_of(self._engine.search(
                keywords=list(query.keywords), fragment=query.fragment,
                top_n=TOP_N))
        return self._pages[query]

    def failures(self, samples: list[Sample], queries: list[Query]) -> int:
        """Samples that errored or whose page differs from the golden."""
        return sum(1 for sample in samples
                   if sample.error is not None
                   or sample.result != self.page(queries[sample.index]))

    def __enter__(self) -> "Oracle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._engine.close()
        self._repo.close()
