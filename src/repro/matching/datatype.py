"""Data-type matcher: type-family compatibility for attribute pairs.

Schemr's OpenII integration sketch mentions "a codebook that contains
data types like units, date/time, and geographic location".  This
matcher implements the data-type leg: declared SQL/XSD types are mapped
into families (numeric, text, temporal, boolean, binary, identifier)
and attribute pairs are scored by a family-compatibility table.  Pairs
where either side lacks a declared type, and any pair involving an
entity, score 0 — the matcher abstains rather than guessing.
"""

from __future__ import annotations

import re
from functools import lru_cache
from repro.matching.base import (
    Column,
    ColumnMatcher,
    MatchKeys,
    SimilarityMatrix,
    column_from_cells,
    distinct_rows,
)
from repro.model.elements import ElementKind, ElementRef
from repro.model.query import QueryGraph, QueryItemKind
from repro.model.schema import Schema

#: type-name (lowercased, parameters stripped) -> family
_TYPE_FAMILIES: dict[str, str] = {
    # numeric
    "int": "numeric", "integer": "numeric", "smallint": "numeric",
    "bigint": "numeric", "tinyint": "numeric", "decimal": "numeric",
    "numeric": "numeric", "float": "numeric", "real": "numeric",
    "double": "numeric", "double precision": "numeric", "number": "numeric",
    "byte": "numeric", "short": "numeric", "long": "numeric",
    # text
    "char": "text", "varchar": "text", "text": "text", "string": "text",
    "clob": "text", "nvarchar": "text", "nchar": "text", "token": "text",
    "normalizedstring": "text",
    # temporal
    "date": "temporal", "time": "temporal", "datetime": "temporal",
    "timestamp": "temporal", "year": "temporal", "duration": "temporal",
    "gyear": "temporal", "gmonth": "temporal", "gday": "temporal",
    # boolean
    "bool": "boolean", "boolean": "boolean", "bit": "boolean",
    # binary
    "blob": "binary", "binary": "binary", "varbinary": "binary",
    "bytea": "binary", "base64binary": "binary", "hexbinary": "binary",
    # identifiers
    "id": "identifier", "idref": "identifier", "uuid": "identifier",
    "serial": "identifier", "bigserial": "identifier",
}

#: (family, family) -> score; symmetric, same-family pairs handled apart.
_CROSS_FAMILY: dict[frozenset[str], float] = {
    frozenset({"numeric", "identifier"}): 0.6,
    frozenset({"text", "identifier"}): 0.4,
    frozenset({"numeric", "temporal"}): 0.2,
    frozenset({"text", "temporal"}): 0.2,
    frozenset({"numeric", "boolean"}): 0.2,
}

_PARAMS = re.compile(r"\(.*\)$")


@lru_cache(maxsize=4096)
def type_family(declared: str) -> str | None:
    """Map a declared type string to its family, or None when unknown."""
    cleaned = _PARAMS.sub("", declared.strip().lower()).strip()
    if not cleaned:
        return None
    return _TYPE_FAMILIES.get(cleaned)


def family_similarity(a: str | None, b: str | None) -> float:
    """Compatibility score between two type families."""
    if a is None or b is None:
        return 0.0
    if a == b:
        return 1.0
    return _CROSS_FAMILY.get(frozenset({a, b}), 0.0)


class DataTypeMatcher(ColumnMatcher):
    """Scores attribute pairs by declared-type family compatibility.

    Only fragment attributes carry declared types on the query side, so
    keyword rows always stay 0 — this matcher refines fragment queries
    and abstains otherwise, which is the behaviour the ensemble
    weighting expects.

    Column key: the attribute's declared-type family.
    """

    name = "datatype"

    def reference(self, query: QueryGraph,
                  candidate: Schema) -> SimilarityMatrix:
        matrix = self.empty_matrix(query, candidate)
        candidate_families = self._attribute_families(candidate)
        for label, family in zip(query.element_labels(),
                                 self._query_families(query)):
            if family is None:
                continue
            for path, cand_family in candidate_families:
                score = family_similarity(family, cand_family)
                if score > 0.0:
                    matrix.set(label, path, score)
        return matrix

    def query_rows(self, query: QueryGraph):
        families = self._query_families(query)
        return (len(families), distinct_rows(families))

    def column_keys(self, profile: MatchKeys):
        # Entities have no family: their key is None, an empty column.
        return profile.element_families()

    def score_column(self, rows, key: str | None) -> Column:
        if key is None:
            return None
        n_rows, forms = rows
        return column_from_cells(n_rows, [
            (indices, family_similarity(family, key))
            for family, indices in forms])

    @classmethod
    def _query_families(cls, query: QueryGraph) -> list[str | None]:
        """Declared-type family per query row; keyword rows carry no
        type (None)."""
        families: list[str | None] = []
        for item in query.items:
            if item.kind is QueryItemKind.KEYWORD:
                families.append(None)
                continue
            assert item.fragment is not None
            families.extend(cls._ref_family(item.fragment, ref)
                            for ref in item.fragment.elements())
        return families

    @staticmethod
    def _ref_family(schema: Schema, ref: ElementRef) -> str | None:
        if ref.kind is ElementKind.ENTITY:
            return None
        attribute = schema.entity(ref.entity).attribute(ref.attribute or "")
        return type_family(attribute.data_type)

    @staticmethod
    def _attribute_families(schema: Schema) -> list[tuple[str, str | None]]:
        out: list[tuple[str, str | None]] = []
        for entity in schema.entities.values():
            for attr in entity.attributes:
                out.append((f"{entity.name}.{attr.name}",
                            type_family(attr.data_type)))
        return out
