"""The Schemr engine: candidate extraction -> matching -> tightness-of-fit.

:class:`~repro.core.engine.SchemrEngine` is the library's main entry
point.  It consumes a query graph (or raw keywords + fragment text),
filters candidates through the inverted index, re-scores them with the
matcher ensemble and ranks by tightness-of-fit, returning
:class:`~repro.core.results.SearchResult` rows that carry everything the
Figure 2 tabular view displays.
"""

from repro.core.config import SchemrConfig
from repro.core.engine import SchemrEngine
from repro.core.results import ElementMatch, SearchResult, format_result_table

__all__ = [
    "ElementMatch",
    "SchemrConfig",
    "SchemrEngine",
    "SearchResult",
    "format_result_table",
]
