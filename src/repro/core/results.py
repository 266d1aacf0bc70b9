"""Search results and the Figure 2 tabular view.

"Schemr returns a ranked list of n results, presented in a tabular
format, including columns for name, score, matches, entities,
attributes, and description."
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True, slots=True)
class ElementMatch:
    """One matched (query element, schema element) pair for drill-in."""

    query_label: str
    element_path: str
    score: float


@dataclass(slots=True)
class SearchResult:
    """One row of the ranked result list."""

    schema_id: int
    name: str
    score: float
    match_count: int
    entity_count: int
    attribute_count: int
    description: str = ""
    coarse_score: float = 0.0
    best_anchor: str | None = None
    element_scores: dict[str, float] = field(default_factory=dict)
    element_matches: list[ElementMatch] = field(default_factory=list)

    def copy(self) -> "SearchResult":
        """A copy whose score dict and match list are its own (the
        matches themselves are frozen)."""
        return replace(self, element_scores=dict(self.element_scores),
                       element_matches=list(self.element_matches))

    def top_matches(self, limit: int = 5) -> list[ElementMatch]:
        """Best element matches for display, highest score first."""
        ranked = sorted(self.element_matches,
                        key=lambda m: (-m.score, m.element_path))
        return ranked[:limit]


_COLUMNS = ("rank", "name", "score", "matches", "entities", "attributes",
            "description")


def format_result_table(results: list[SearchResult],
                        max_description: int = 40) -> str:
    """Render results as the fixed-width table of the Figure 2 GUI panel."""
    rows: list[tuple[str, ...]] = [tuple(c.title() for c in _COLUMNS)]
    for rank, result in enumerate(results, start=1):
        description = result.description
        if len(description) > max_description:
            description = description[:max_description - 3] + "..."
        rows.append((
            str(rank),
            result.name,
            f"{result.score:.4f}",
            str(result.match_count),
            str(result.entity_count),
            str(result.attribute_count),
            description,
        ))
    widths = [max(len(row[i]) for row in rows) for i in range(len(_COLUMNS))]
    lines = []
    for i, row in enumerate(rows):
        line = "  ".join(cell.ljust(width)
                         for cell, width in zip(row, widths)).rstrip()
        lines.append(line)
        if i == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)
