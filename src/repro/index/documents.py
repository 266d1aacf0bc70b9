"""The document model of the index.

Per the paper: "Each schema in the index is represented as a document,
for which we store a title, a summary, an ID, and a flattened
representation of each element in the schema."  A document also
carries the schema's match keys (its :class:`~repro.index.records.
MatchRecord`), which phase 2 scores from, and the schema itself (its
payload), which only ``/schema/<id>`` decodes — both from the
generation phase 1 searched, never from the repository.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import IndexError_
from repro.index.records import MatchRecord
from repro.model.schema import Schema, pack_payload
from repro.text.analysis import SCHEMA_ANALYZER, Analyzer


@dataclass(slots=True)
class Document:
    """One indexed schema.

    ``terms`` is the analyzed token stream (flattened element names plus
    title and summary words); positions are implicit list indices, which
    gives the index its proximity data for free.  ``payload`` is the
    schema's stored JSON packed by :func:`~repro.model.schema.pack_payload`
    — for a document read from a segment, a zero-copy view of those
    bytes in the mapped file.  ``record`` holds the schema's match keys;
    a document indexed directly, not from a schema, has none and is
    never scored by phase 2.
    """

    doc_id: int
    title: str
    summary: str = ""
    terms: list[str] = field(default_factory=list)
    payload: bytes | memoryview = b""
    record: MatchRecord | None = None

    def __post_init__(self) -> None:
        if self.doc_id < 0:
            raise IndexError_(f"document id must be >= 0, got {self.doc_id}")

    @property
    def length(self) -> int:
        """Token count; feeds the length normalization factor."""
        return len(self.terms)


def document_from_schema(schema: Schema,
                         analyzer: Analyzer = SCHEMA_ANALYZER,
                         text: str | bytes | None = None) -> Document:
    """Flatten a schema into its index document.

    The token stream is: title words, summary words, then every element
    name in schema order (entity name followed by its attribute names),
    all passed through ``analyzer``.  Element order is preserved so
    proximity reflects schema locality.  ``text`` is the schema's
    stored JSON when the caller read it from the repository (it is what
    :meth:`Schema.to_json` gives, so passing it saves the re-encode).
    """
    if schema.schema_id is None:
        raise IndexError_(
            f"schema {schema.name!r} has no schema_id; import it into a "
            "repository (or set schema_id) before indexing")
    terms = analyzer.analyze(schema.name)
    terms.extend(analyzer.analyze(schema.description))
    terms.extend(analyzer.analyze_all(schema.terms()))
    return Document(
        doc_id=schema.schema_id,
        title=schema.name,
        summary=schema.description,
        terms=terms,
        payload=pack_payload(schema.to_json() if text is None else text),
        record=MatchRecord.from_schema(schema),
    )
