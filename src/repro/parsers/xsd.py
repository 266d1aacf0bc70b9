"""XSD (XML Schema Definition) parser.

Hierarchical XSD structure is normalized into the relational model the
rest of the library works on, the way an XML shredding tool would:

* an ``xs:element`` with complex content (or a named ``xs:complexType``)
  becomes an :class:`~repro.model.elements.Entity`;
* leaf ``xs:element``s and ``xs:attribute``s become attributes;
* containment of entity B inside entity A becomes the foreign key
  ``B.<A>_id -> A.id``, synthesizing the ``id`` key attribute on A (and
  the ``<A>_id`` attribute on B) when absent.  Synthetic attributes are
  tagged in their description so downstream code can recognize them.

This preserves what tightness-of-fit needs — entity neighborhoods that
follow the document hierarchy — while keeping realistic relational
names.
"""

from __future__ import annotations

import dataclasses
import xml.etree.ElementTree as ET

from repro.errors import ParseError, SchemaError
from repro.model.elements import Attribute, Entity, ForeignKey
from repro.model.schema import Schema

_XS = "{http://www.w3.org/2001/XMLSchema}"
SYNTHETIC_KEY_NOTE = "synthetic containment key"


def _local_type(type_name: str | None) -> str:
    """``xs:string`` -> ``string``; passthrough for unprefixed names."""
    if not type_name:
        return ""
    _, _, local = type_name.rpartition(":")
    return local


class _XsdParser:
    def __init__(self, root: ET.Element, schema_name: str) -> None:
        self._root = root
        self._schema = Schema(name=schema_name, source="xsd")
        self._named_types: dict[str, ET.Element] = {}
        self._containments: list[tuple[str, str]] = []  # (parent, child)
        self._visiting: set[str] = set()

    def parse(self) -> Schema:
        if self._root.tag != f"{_XS}schema":
            raise ParseError(
                f"root element is {self._root.tag!r}, expected xs:schema")
        for node in self._root.findall(f"{_XS}complexType"):
            name = node.get("name")
            if name:
                self._named_types[name] = node
        top_elements = self._root.findall(f"{_XS}element")
        if not top_elements and not self._named_types:
            raise ParseError("XSD declares no elements or complex types")
        for element in top_elements:
            self._walk_element(element, parent_entity=None)
        # Named complex types never instantiated by an element still
        # describe structure worth indexing.
        for name, node in self._named_types.items():
            if name not in self._schema.entities:
                self._build_entity(name, node, parent_entity=None)
        for parent, child in self._containments:
            self._link(parent, child)
        self._restore_appinfo_foreign_keys()
        # Attributes were added after their entities: construct the
        # schema again so that it checks no two elements share a path.
        return dataclasses.replace(self._schema)

    def _restore_appinfo_foreign_keys(self) -> None:
        """Read back ``<foreignKey source target>`` appinfo annotations.

        :func:`repro.repository.exporter.export_xsd` records relational
        FK structure (which XSD cannot express hierarchically) in
        ``xs:annotation/xs:appinfo``; restoring them completes the
        export/import round trip.  Annotations whose endpoints do not
        exist in the parsed schema are ignored.
        """
        for node in self._root.findall(
                f"{_XS}annotation/{_XS}appinfo/foreignKey"):
            source = node.get("source", "")
            target = node.get("target", "")
            source_entity, _, source_attr = source.partition(".")
            target_entity, _, target_attr = target.partition(".")
            if not (source_attr and target_attr):
                continue
            try:
                fk = ForeignKey(source_entity, source_attr,
                                target_entity, target_attr)
            except SchemaError:
                continue
            source_ok = (source_entity in self._schema.entities
                         and self._schema.entity(source_entity)
                         .has_attribute(source_attr))
            target_ok = (target_entity in self._schema.entities
                         and self._schema.entity(target_entity)
                         .has_attribute(target_attr))
            if source_ok and target_ok \
                    and fk not in self._schema.foreign_keys:
                self._schema.add_foreign_key(fk)

    # -- traversal ---------------------------------------------------------

    def _walk_element(self, element: ET.Element,
                      parent_entity: str | None) -> None:
        name = element.get("name") or element.get("ref")
        if not name:
            raise ParseError("xs:element without name or ref")
        name = _local_type(name)
        type_attr = _local_type(element.get("type"))
        inline = element.find(f"{_XS}complexType")
        if inline is not None:
            self._build_entity(name, inline, parent_entity)
            return
        if type_attr in self._named_types:
            self._build_entity(name, self._named_types[type_attr],
                               parent_entity)
            return
        # Leaf element: belongs to the parent entity as an attribute.
        if parent_entity is None:
            # A top-level scalar element: model it as a 1-attribute entity
            # so it remains searchable.
            entity = Entity(name=name)
            entity.add_attribute(Attribute(name="value",
                                           data_type=type_attr or "string"))
            self._add_entity(entity)
            return
        self._add_attribute(parent_entity, name, type_attr or "string")

    def _build_entity(self, name: str, complex_type: ET.Element,
                      parent_entity: str | None) -> None:
        if name in self._visiting:
            # Recursive type (e.g. a tree); record containment and stop.
            if parent_entity:
                self._containments.append((parent_entity, name))
            return
        if name in self._schema.entities:
            if parent_entity:
                self._containments.append((parent_entity, name))
            return
        self._visiting.add(name)
        try:
            entity = Entity(name=name,
                            description=self._documentation(complex_type))
            self._add_entity(entity)
            if parent_entity:
                self._containments.append((parent_entity, name))
            for attr_node in complex_type.findall(f"{_XS}attribute"):
                attr_name = attr_node.get("name")
                if attr_name:
                    self._add_attribute(
                        name, attr_name,
                        _local_type(attr_node.get("type")) or "string")
            for group_tag in ("sequence", "all", "choice"):
                for group in complex_type.findall(f"{_XS}{group_tag}"):
                    self._walk_group(group, name)
        finally:
            self._visiting.discard(name)

    def _walk_group(self, group: ET.Element, entity_name: str) -> None:
        for child in group:
            if child.tag == f"{_XS}element":
                self._walk_element(child, parent_entity=entity_name)
            elif child.tag in (f"{_XS}sequence", f"{_XS}all", f"{_XS}choice"):
                self._walk_group(child, entity_name)

    @staticmethod
    def _documentation(node: ET.Element) -> str:
        doc = node.find(f"{_XS}annotation/{_XS}documentation")
        if doc is not None and doc.text:
            return " ".join(doc.text.split())
        return ""

    # -- model assembly ----------------------------------------------------

    def _add_entity(self, entity: Entity) -> None:
        if entity.name not in self._schema.entities:
            self._schema.add_entity(entity)

    def _add_attribute(self, entity_name: str, attr_name: str,
                       data_type: str) -> None:
        entity = self._schema.entity(entity_name)
        if not entity.has_attribute(attr_name):
            entity.add_attribute(Attribute(name=attr_name,
                                           data_type=data_type))

    def _link(self, parent: str, child: str) -> None:
        """Normalize containment: ``child.<parent>_id -> parent.id``."""
        if parent == child:
            return
        parent_entity = self._schema.entity(parent)
        child_entity = self._schema.entity(child)
        if not parent_entity.has_attribute("id"):
            parent_entity.add_attribute(Attribute(
                name="id", data_type="ID",
                description=SYNTHETIC_KEY_NOTE, primary_key=True,
                nullable=False))
        ref_name = f"{parent}_id"
        if not child_entity.has_attribute(ref_name):
            child_entity.add_attribute(Attribute(
                name=ref_name, data_type="ID",
                description=SYNTHETIC_KEY_NOTE))
        fk = ForeignKey(source_entity=child, source_attribute=ref_name,
                        target_entity=parent, target_attribute="id")
        if fk not in self._schema.foreign_keys:
            self._schema.add_foreign_key(fk)


def parse_xsd(text: str, schema_name: str = "xsd_schema") -> Schema:
    """Parse XSD text into a :class:`Schema`.

    Raises :class:`ParseError` on malformed XML or when the document is
    not an XSD.
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ParseError(f"malformed XML: {exc}") from exc
    return _XsdParser(root, schema_name).parse()
