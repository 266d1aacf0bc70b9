"""Match records: the keys phase 2 scores, carried by the index.

Phase 2 scores a candidate from column *keys* — each element's analysed
words, its context set, its type family, its entity's shape — and
tightness reads only which entity owns an element and which entities
share an FK neighborhood.  None of that needs the schema object, so
each indexed document carries a compact :class:`MatchRecord` built
once, at index time, from the schema the indexer already decoded.

A record is two int columns over a :class:`NameTable` of the raw
strings it uses (entity names, attribute names, declared types):

``names``
    per entity, its name ordinal then its attributes' name ordinals
    (schema order); then one declared-type ordinal per attribute.
``shape``
    ``E``; the attribute count of each entity; the FK-component id of
    each entity; the FK degree of each entity; then each entity's
    FK-adjacent entity indices, ascending.

An in-memory document's record owns a table of its own strings, in
record order; a record read from a segment shares the segment's name
dictionary, which the writer re-interns from the records it writes
(sorted, distinct, used — :func:`record_columns`), so a merged segment
equals a fresh write.  Either way
the query-time code is the same: :meth:`MatchRecord.keys` derives a
:class:`RecordKeys` — the key interface
:class:`~repro.matching.profile.SchemaMatchProfile` also exposes —
from ordinals.  Analysis runs once per distinct name per table (the
table memoises it), never once per element occurrence; composite keys
(context sets, entity attribute-word sets) are unions of those words.
The context set an entity's attributes share is memoised per distinct
group of names — one set per entity of the segment once warm, about
1.7 MB for the harness fixture's 2,348 distinct groups — because every
attribute keys its context column with it, in every search: one shared
set hashes once and a memo probe is an identity hit.  The rest (an
entity's own context with its FK neighbours, attribute-word sets) are
built per read.  Everything memoised is a pure function of the table's
strings and dies with the table.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, chain
from typing import Sequence

from repro.matching.datatype import type_family
from repro.matching.normalize import analysed_words
from repro.model.schema import Schema
from repro.scoring.neighborhood import NeighborhoodIndex


class NameTable:
    """Strings (a record's own, or a segment's sorted dictionary) plus
    their memoised analysis.

    ``strings`` is a tuple, or a zero-argument callable producing one
    (a segment decodes its dictionary on first use).  Memo fills race
    harmlessly across threads: two readers compute the same value and
    one list slot keeps it.
    """

    __slots__ = ("_strings", "_expanded", "_plain", "_families",
                 "_contexts")

    def __init__(self, strings) -> None:
        self._strings = strings
        self._expanded: list | None = None
        self._plain: list | None = None
        self._families: list | None = None
        self._contexts: dict[tuple[int, ...], frozenset[str]] | None = None

    @property
    def strings(self) -> tuple[str, ...]:
        strings = self._strings
        if callable(strings):
            strings = self._strings = strings()
        return strings

    def __len__(self) -> int:
        return len(self.strings)

    def words(self, ordinals: Sequence[int], expand: bool = True) -> list:
        """:func:`analysed_words` of each ordinal's string."""
        memo = self._expanded if expand else self._plain
        if memo is None:
            memo = [None] * len(self.strings)
            if expand:
                self._expanded = memo
            else:
                self._plain = memo
        strings = self.strings
        out = []
        for ordinal in ordinals:
            words = memo[ordinal]
            if words is None:
                words = memo[ordinal] = analysed_words(strings[ordinal],
                                                       expand)
            out.append(words)
        return out

    def context(self, group: tuple[int, ...]) -> frozenset[str]:
        """The context set an entity's attributes share: the expanded
        words of ``group`` (the entity's name ordinal and its
        attributes'), built once per distinct group.  Every element of
        the entity, in every search, keys its context column with this
        one set, so its hash is computed once and a memo probe is an
        identity hit."""
        memo = self._contexts
        if memo is None:
            memo = self._contexts = {}
        words = memo.get(group)
        if words is None:
            words = memo[group] = frozenset(chain.from_iterable(
                self.words(group, True)))
        return words

    def families(self, ordinals: Sequence[int]) -> list:
        """:func:`type_family` of each ordinal's string."""
        memo = self._families
        if memo is None:
            # A sentinel, not None: None is a family ("unknown type").
            memo = self._families = [_UNSET] * len(self.strings)
        strings = self.strings
        out = []
        for ordinal in ordinals:
            family = memo[ordinal]
            if family is _UNSET:
                family = memo[ordinal] = type_family(strings[ordinal])
            out.append(family)
        return out


_UNSET = object()


class MatchRecord:
    """One schema's match keys as ordinals into a :class:`NameTable`
    (the layout is in the module docstring).  Immutable and shared: a
    read derives a fresh :class:`RecordKeys`.

    A record built in memory keeps its strings as a plain tuple and
    makes its table when a search first reads it: most are flushed into
    a segment first, which re-interns the strings and needs no table,
    so the index build allocates one object per record less.
    """

    __slots__ = ("_table", "names", "shape")

    def __init__(self, table: NameTable | tuple[str, ...], names,
                 shape) -> None:
        self._table = table
        self.names = names
        self.shape = shape

    @property
    def table(self) -> NameTable:
        table = self._table
        if type(table) is tuple:
            table = self._table = NameTable(table)
        return table

    @classmethod
    def from_schema(cls, schema: Schema) -> "MatchRecord":
        """The record of ``schema``, over a table of its own strings in
        record order (a segment writer sorts and dedupes when it
        re-interns them; in memory that would buy nothing)."""
        entities = schema.entities
        raw: list[str] = []
        types: list[str] = []
        counts: list[int] = []
        for entity in entities.values():
            raw.append(entity.name)
            attributes = entity.attributes
            for attribute in attributes:
                raw.append(attribute.name)
                types.append(attribute.data_type)
            counts.append(len(attributes))
        raw += types
        entity_count = len(counts)
        shape = [entity_count, *counts]
        if not schema.foreign_keys:
            shape += range(entity_count)  # every entity its own component
            shape += [0] * entity_count
            return cls(tuple(raw), range(len(raw)), array("i", shape))
        index_of = {name: i for i, name in enumerate(entities)}
        adjacency: list[set[int]] = [set() for _ in counts]
        for fk in schema.foreign_keys:
            source = index_of[fk.source_entity]
            target = index_of[fk.target_entity]
            if source != target:  # a self-reference joins nothing
                adjacency[source].add(target)
                adjacency[target].add(source)
        components = [-1] * entity_count
        next_component = 0
        for start in range(entity_count):
            if components[start] >= 0:
                continue
            components[start] = next_component
            stack = [start]
            while stack:
                for neighbor in adjacency[stack.pop()]:
                    if components[neighbor] < 0:
                        components[neighbor] = next_component
                        stack.append(neighbor)
            next_component += 1
        shape += components
        shape += map(len, adjacency)
        for neighbors in adjacency:
            shape += sorted(neighbors)
        return cls(tuple(raw), range(len(raw)), array("i", shape))

    def strings(self) -> list[str]:
        """``names`` resolved through the table (what a segment writer
        re-interns into its own dictionary)."""
        table = self._table
        strings = table if type(table) is tuple else table.strings
        return list(map(strings.__getitem__, self.names))

    def keys(self, schema_id: int, name: str,
             description: str = "") -> "RecordKeys":
        """This record's match keys, for the document titled ``name``."""
        return RecordKeys(self, schema_id, name, description)


class RecordKeys:
    """One candidate's match keys, derived from its :class:`MatchRecord`.

    The key interface phase 2 reads (shared with
    :class:`~repro.matching.profile.SchemaMatchProfile`):
    ``element_paths``, ``entity_of``, :meth:`element_words`,
    :meth:`element_contexts`, :meth:`element_families`,
    :meth:`element_shapes` and :meth:`neighborhood_index`.  It also
    answers what a result row shows — ``schema_id``, ``name``,
    ``description`` and the entity and attribute counts — so scoring a
    candidate decodes nothing.  Paths and owners are built eagerly
    (every candidate needs them); the rest on first use.
    """

    __slots__ = ("schema_id", "name", "description", "element_paths",
                 "entity_of", "entity_count", "attribute_count", "_table",
                 "_ordinals", "_types", "_counts", "_shape", "_starts",
                 "_words")

    def __init__(self, record: MatchRecord, schema_id: int, name: str,
                 description: str = "") -> None:
        self.schema_id = schema_id
        self.name = name
        self.description = description
        table = self._table = record.table
        shape = self._shape = list(record.shape)
        entity_count = self.entity_count = shape[0]
        counts = self._counts = shape[1:1 + entity_count]
        names = list(record.names)
        element_count = entity_count + sum(counts)
        self.attribute_count = element_count - entity_count
        self._ordinals = ordinals = names[:element_count]
        self._types = names[element_count:]
        strings = table.strings
        paths: list[str] = []
        entity_of: dict[str, str] = {}
        starts = self._starts = []
        at = 0
        for count in counts:
            entity = strings[ordinals[at]]
            starts.append(at)
            paths.append(entity)
            entity_of[entity] = entity
            for ordinal in ordinals[at + 1:at + 1 + count]:
                path = f"{entity}.{strings[ordinal]}"
                paths.append(path)
                entity_of[path] = entity
            at += 1 + count
        self.element_paths = paths
        self.entity_of = entity_of
        self._words: list | None = None

    def element_words(self, expand: bool = True) -> list[tuple[str, ...]]:
        """Each element's analysed local-name words."""
        if not expand:
            return self._table.words(self._ordinals, False)
        words = self._words
        if words is None:
            words = self._words = self._table.words(self._ordinals, True)
        return words

    def element_contexts(self) -> list[frozenset[str]]:
        """Each element's context set: its entity's name and attribute
        words, plus — for the entity element — its FK neighbours' name
        words."""
        words = self.element_words()
        context, ordinals = self._table.context, self._ordinals
        starts, shape = self._starts, self._shape
        degrees_at = 1 + 2 * self.entity_count
        neighbors_at = degrees_at + self.entity_count
        contexts: list[frozenset[str]] = []
        for entity, (start, count) in enumerate(zip(starts, self._counts)):
            shared = context(tuple(ordinals[start:start + 1 + count]))
            degree = shape[degrees_at + entity]
            if degree:
                contexts.append(shared.union(*[
                    words[starts[neighbor]] for neighbor
                    in shape[neighbors_at:neighbors_at + degree]]))
                neighbors_at += degree
            else:
                contexts.append(shared)
            contexts += [shared] * count
        return contexts

    def element_families(self) -> list[str | None]:
        """Each element's declared-type family (None for entities)."""
        families = self._table.families(self._types)
        out: list[str | None] = []
        at = 0
        for count in self._counts:
            out.append(None)
            out += families[at:at + count]
            at += count
        return out

    def element_shapes(self) -> list[tuple[bool, frozenset[str], int]]:
        """Each element's (is its entity, the entity's attribute-word
        set, the entity's attribute count)."""
        words = self.element_words()
        out: list[tuple[bool, frozenset[str], int]] = []
        for start, count in zip(self._starts, self._counts):
            attribute_words = frozenset(chain.from_iterable(
                words[start + 1:start + 1 + count]))
            out.append((True, attribute_words, count))
            out += [(False, attribute_words, count)] * count
        return out

    def neighborhood_index(self) -> NeighborhoodIndex:
        """Same-entity / same-neighborhood classification from the
        record's component ids."""
        entity_count = self.entity_count
        return NeighborhoodIndex.from_component_map(dict(zip(
            map(self.element_paths.__getitem__, self._starts),
            self._shape[1 + entity_count:1 + 2 * entity_count])))


def record_columns(records) -> tuple[list[str], array, array, array, array]:
    """Segment columns of ``records`` (a record or None per document, in
    document order), re-interned into one sorted dictionary of the
    strings they use: ``(dictionary, names offsets, names, shape
    offsets, shape)``.  A document without a record gets empty ranges.
    """
    present = [record for record in records if record is not None]
    # Resolved twice, one record at a time: a list per record kept
    # alive across the whole batch would only feed the collector.
    dictionary = sorted(set(chain.from_iterable(
        map(MatchRecord.strings, present))))
    ordinal = {string: i for i, string in enumerate(dictionary)}
    names = array("i", map(ordinal.__getitem__, chain.from_iterable(
        map(MatchRecord.strings, present))))
    shape = array("i", chain.from_iterable(
        record.shape for record in present))
    names_off = array("Q", accumulate(
        (0 if record is None else len(record.names) for record in records),
        initial=0))
    shape_off = array("Q", accumulate(
        (0 if record is None else len(record.shape) for record in records),
        initial=0))
    return dictionary, names_off, names, shape_off, shape
