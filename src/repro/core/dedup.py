"""Near-duplicate collapsing for result lists.

A WebTables-style corpus is full of near-identical schemas — the same
table crawled from many pages with trivial naming differences.  The
paper's filter drops singletons but keeps every duplicate cluster
member, so a result page can fill up with copies of one answer.  This
module groups results whose schemas have highly-overlapping normalized
element vocabularies and keeps the best-scored representative of each
group, annotating it with how many near-duplicates it hides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.results import SearchResult
from repro.errors import SchemrError
from repro.matching.normalize import normalize_words
from repro.model.schema import Schema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.repository.store import SchemaRepository

#: Jaccard overlap of element-word fingerprints above which two schemas
#: are near-duplicates.
DEFAULT_OVERLAP = 0.9


def schema_fingerprint(schema: Schema) -> frozenset[str]:
    """The normalized element-word set of a schema.

    Naming-style noise (case, delimiters, abbreviations) washes out, so
    two renderings of the same underlying table fingerprint alike.
    """
    words: set[str] = set()
    for ref in schema.elements():
        words.update(normalize_words(ref.local_name))
    return frozenset(words)


def fingerprint_overlap(a: frozenset[str], b: frozenset[str]) -> float:
    """Jaccard overlap of two fingerprints."""
    if not a or not b:
        return 0.0
    return len(a & b) / len(a | b)


@dataclass(slots=True)
class DedupedResult:
    """One representative result plus its collapsed near-duplicates."""

    representative: SearchResult
    duplicates: list[SearchResult] = field(default_factory=list)

    @property
    def similar_count(self) -> int:
        return len(self.duplicates)


def collapse_duplicates(results: list[SearchResult],
                        source: "SchemaRepository",
                        overlap: float = DEFAULT_OVERLAP
                        ) -> list[DedupedResult]:
    """Greedily collapse near-duplicate results, order-preserving.

    Results arrive ranked; each becomes either a new representative or
    a duplicate of the first earlier representative whose fingerprint
    overlaps by at least ``overlap``.  The output order is the input
    order of the representatives, so ranking semantics survive.
    """
    if not 0.0 < overlap <= 1.0:
        raise SchemrError(f"overlap must be in (0, 1], got {overlap}")
    groups: list[DedupedResult] = []
    fingerprints: list[frozenset[str]] = []
    for result in results:
        fingerprint = schema_fingerprint(source.get_schema(result.schema_id))
        for group, existing in zip(groups, fingerprints):
            if fingerprint_overlap(fingerprint, existing) >= overlap:
                group.duplicates.append(result)
                break
        else:
            groups.append(DedupedResult(representative=result))
            fingerprints.append(fingerprint)
    return groups


def format_deduped(groups: list[DedupedResult]) -> str:
    """Compact display: representative rows with "+N similar" notes."""
    lines = []
    for rank, group in enumerate(groups, start=1):
        result = group.representative
        note = (f"  (+{group.similar_count} similar)"
                if group.similar_count else "")
        lines.append(f"{rank:>3}. {result.name:<40} "
                     f"{result.score:8.4f}{note}")
    return "\n".join(lines)
