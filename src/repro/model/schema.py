"""The :class:`Schema` aggregate: entities + foreign keys + metadata."""

from __future__ import annotations

import json
import zlib

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import SchemaError
from repro.model.elements import Attribute, ElementRef, Entity, ForeignKey


@dataclass(slots=True)
class Schema:
    """A database schema: named entities connected by foreign keys.

    ``schema_id`` is assigned by the repository on import and is ``None``
    for schemas that only live in memory (e.g. query fragments).
    """

    name: str
    entities: dict[str, Entity] = field(default_factory=dict)
    foreign_keys: list[ForeignKey] = field(default_factory=list)
    description: str = ""
    source: str = ""
    schema_id: int | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("schema name must be non-empty")
        for key, entity in self.entities.items():
            if key != entity.name:
                raise SchemaError(
                    f"entity dict key {key!r} does not match entity name "
                    f"{entity.name!r}")
        # Two paths can only collide when an entity name holds a dot
        # (``a.b`` + ``c`` against ``a`` + ``b.c``, or ``a.b`` against
        # ``a`` + ``b``), so schemas without one skip the path check.
        if "." in "".join(self.entities):
            self._check_paths()
        for fk in self.foreign_keys:
            self._check_fk(fk)

    # -- construction ------------------------------------------------------

    def add_entity(self, entity: Entity) -> Entity:
        """Register an entity; rejects duplicate names and an element
        path that an element already in the schema holds.

        Only the new entity's paths are probed.  Attributes appended to
        an entity after it was added are not rechecked; building a
        :class:`Schema` from its entities checks every path.
        """
        if entity.name in self.entities:
            raise SchemaError(
                f"schema {self.name!r} already has entity {entity.name!r}")
        name = entity.name
        for path in (name, *(f"{name}.{attr.name}"
                             for attr in entity.attributes)):
            if self._has_path(path):
                raise SchemaError(
                    f"schema {self.name!r} has two elements at path "
                    f"{path!r}")
        self.entities[name] = entity
        return entity

    def _has_path(self, path: str) -> bool:
        """Whether an element sits at ``path``: its entity is ``path``
        itself or a prefix of it ending just before a dot."""
        if path in self.entities:
            return True
        cut = path.find(".")
        while cut != -1:
            entity = self.entities.get(path[:cut])
            if entity is not None and entity.has_attribute(path[cut + 1:]):
                return True
            cut = path.find(".", cut + 1)
        return False

    def _check_paths(self) -> None:
        """Reject two elements that share one path: paths label matrix
        columns and key every profile map."""
        if len(self.element_entities()) != self.element_count:
            seen: set[str] = set()
            for ref in self.elements():
                if ref.path in seen:
                    raise SchemaError(
                        f"schema {self.name!r} has two elements at path "
                        f"{ref.path!r}")
                seen.add(ref.path)

    def add_foreign_key(self, fk: ForeignKey) -> ForeignKey:
        """Register a foreign key after validating both endpoints exist."""
        self._check_fk(fk)
        self.foreign_keys.append(fk)
        return fk

    def _check_fk(self, fk: ForeignKey) -> None:
        for entity_name, attr_name in (
                (fk.source_entity, fk.source_attribute),
                (fk.target_entity, fk.target_attribute)):
            entity = self.entities.get(entity_name)
            if entity is None:
                raise SchemaError(
                    f"foreign key {fk} references unknown entity "
                    f"{entity_name!r}")
            if not entity.has_attribute(attr_name):
                raise SchemaError(
                    f"foreign key {fk} references unknown attribute "
                    f"{entity_name}.{attr_name}")

    # -- inspection --------------------------------------------------------

    def entity(self, name: str) -> Entity:
        try:
            return self.entities[name]
        except KeyError:
            raise SchemaError(
                f"schema {self.name!r} has no entity {name!r}") from None

    def element(self, ref: ElementRef) -> Entity | Attribute:
        """Resolve a ref to its Entity or Attribute object."""
        entity = self.entity(ref.entity)
        if ref.attribute is None:
            return entity
        return entity.attribute(ref.attribute)

    def has_element(self, ref: ElementRef) -> bool:
        entity = self.entities.get(ref.entity)
        if entity is None:
            return False
        if ref.attribute is None:
            return True
        return entity.has_attribute(ref.attribute)

    def elements(self) -> Iterator[ElementRef]:
        """All element refs: each entity followed by its attributes."""
        for entity in self.entities.values():
            yield from entity.refs()

    def element_entities(self) -> dict[str, str]:
        """path -> owning entity name for every element, in
        :meth:`elements` order (built without element refs)."""
        entity_of: dict[str, str] = {}
        for entity in self.entities.values():
            name = entity.name
            entity_of[name] = name
            for attr in entity.attributes:
                entity_of[f"{name}.{attr.name}"] = name
        return entity_of

    def attribute_refs(self) -> Iterator[ElementRef]:
        """Only attribute-level refs (the rows Figure 4 scores)."""
        for entity in self.entities.values():
            for attr in entity.attributes:
                yield ElementRef(entity.name, attr.name)

    @property
    def entity_count(self) -> int:
        return len(self.entities)

    @property
    def attribute_count(self) -> int:
        return sum(len(e.attributes) for e in self.entities.values())

    @property
    def element_count(self) -> int:
        """Entities plus attributes; the paper's trivial-schema filter
        drops schemas with three or fewer elements."""
        return self.entity_count + self.attribute_count

    def terms(self) -> list[str]:
        """Raw name terms of every element, in schema order.

        This is the "flattened representation" stored per schema document
        in the inverted index.
        """
        out: list[str] = []
        for entity in self.entities.values():
            out.append(entity.name)
            out.extend(attr.name for attr in entity.attributes)
        return out

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-data form used by the repository store and the service."""
        return {
            "name": self.name,
            "description": self.description,
            "source": self.source,
            "schema_id": self.schema_id,
            "entities": [
                {
                    "name": entity.name,
                    "description": entity.description,
                    "attributes": [
                        {
                            "name": attr.name,
                            "data_type": attr.data_type,
                            "description": attr.description,
                            "nullable": attr.nullable,
                            "primary_key": attr.primary_key,
                        }
                        for attr in entity.attributes
                    ],
                }
                for entity in self.entities.values()
            ],
            "foreign_keys": [
                {
                    "source_entity": fk.source_entity,
                    "source_attribute": fk.source_attribute,
                    "target_entity": fk.target_entity,
                    "target_attribute": fk.target_attribute,
                }
                for fk in self.foreign_keys
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Schema":
        """Inverse of :meth:`to_dict`; validates as it builds.

        The schema is constructed once from all its entities and foreign
        keys, so its paths are checked once, not per entity.
        """
        try:
            name = data["name"]
            entities: dict[str, Entity] = {}
            for entity_data in data.get("entities", []):
                entity = Entity(
                    name=entity_data["name"],
                    description=entity_data.get("description", ""),
                    attributes=[
                        Attribute(
                            name=attr["name"],
                            data_type=attr.get("data_type", ""),
                            description=attr.get("description", ""),
                            nullable=attr.get("nullable", True),
                            primary_key=attr.get("primary_key", False),
                        )
                        for attr in entity_data.get("attributes", [])
                    ],
                )
                if entity.name in entities:
                    raise SchemaError(
                        f"schema {name!r} already has entity "
                        f"{entity.name!r}")
                entities[entity.name] = entity
            foreign_keys = [
                ForeignKey(
                    source_entity=fk_data["source_entity"],
                    source_attribute=fk_data["source_attribute"],
                    target_entity=fk_data["target_entity"],
                    target_attribute=fk_data["target_attribute"],
                )
                for fk_data in data.get("foreign_keys", [])]
        except KeyError as exc:
            raise SchemaError(f"schema dict missing key {exc}") from exc
        return cls(
            name=name,
            entities=entities,
            foreign_keys=foreign_keys,
            description=data.get("description", ""),
            source=data.get("source", ""),
            schema_id=data.get("schema_id"),
        )

    def to_json(self) -> str:
        """The stored form: the JSON text the repository keeps."""
        return json.dumps(self.to_dict())

    def to_payload(self) -> bytes:
        """What an index document carries: :meth:`to_json`, packed
        by :func:`pack_payload`."""
        return pack_payload(self.to_json())

    @classmethod
    def from_payload(cls, payload: bytes | memoryview) -> "Schema":
        """Inverse of :meth:`to_payload`; anything else raises
        :class:`SchemaError`."""
        try:
            text = zlib.decompress(payload)
        except zlib.error as exc:
            raise SchemaError(f"payload is not a packed schema: "
                              f"{exc}") from exc
        return cls.from_json(text)

    @classmethod
    def from_json(cls, payload: str | bytes) -> "Schema":
        """Inverse of :meth:`to_json`; anything that is not a stored
        schema raises :class:`SchemaError`."""
        try:
            data = json.loads(payload)
        except ValueError as exc:
            raise SchemaError(f"payload is not JSON: {exc}") from exc
        try:
            return cls.from_dict(data)
        except (TypeError, AttributeError) as exc:
            raise SchemaError(f"payload is not a stored schema: "
                              f"{exc}") from exc

    def copy(self) -> "Schema":
        """Deep, independent copy (used by the repository cache)."""
        return Schema.from_dict(self.to_dict())

    def __str__(self) -> str:  # pragma: no cover - display only
        return (f"Schema({self.name!r}, {self.entity_count} entities, "
                f"{self.attribute_count} attributes)")


def pack_payload(text: str | bytes) -> bytes:
    """The index payload of a schema's stored JSON text
    (:meth:`Schema.to_json`), zlib-packed to about a quarter of its
    size: every lookup reads one through the map, so its size is
    resident memory.  The one payload producer."""
    if isinstance(text, str):
        text = text.encode("utf-8")
    return zlib.compress(text)
