"""The match-phase acceleration layer: precomputed schema profiles.

Phases two and three of the pipeline used to re-derive everything per
candidate per query: re-split and re-normalize every element name,
rebuild the entity adjacency map twice (context matcher and tightness
scorer), and re-run the foreign-key transitive closure.  A
:class:`SchemaMatchProfile` computes what the matchers and the
tightness scorer read exactly once per schema version — on the first
search that needs it, then cached by :class:`ProfileStore` — so a
query's match phase collapses to dict lookups plus arithmetic:

* analyzed element words (abbreviation-expanded and plain) per element;
* neighboring-element context term sets per element;
* the FK transitive closure (component map) feeding
  :class:`~repro.scoring.neighborhood.NeighborhoodIndex`;
* declared-type families, and per-entity attribute word sets and
  attribute counts, for the datatype and structure matchers.

Building a profile is cheaper than decoding a persisted one, so
profiles are never serialized: a cache miss decodes the schema's stored
payload and builds.

:class:`ProfileStore` is the serving side: an LRU cache of
``(schema, profile)`` pairs keyed by schema id *and* payload bytes, so
a candidate decoded (and profiled) for one query is free for the next,
and a changed schema — which arrives with a different payload — can
never be served from an older entry.  Nothing invalidates it.

:class:`MatchScratch` is the per-query companion: memoization shared
across the candidates of one search — each column matcher's query-side
rows and its score column per distinct column key (see
:class:`~repro.matching.base.ColumnMatcher`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol

from repro.errors import RepositoryError, SchemaError
from repro.matching.datatype import type_family
from repro.matching.normalize import analysed_words
from repro.model.graph import entity_adjacency
from repro.model.schema import Schema
from repro.scoring.neighborhood import NeighborhoodIndex, entity_components

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.matching.base import ColumnMemo
    from repro.model.query import QueryGraph


@dataclass(slots=True)
class SchemaMatchProfile:
    """Per-schema artifacts every matcher needs, computed once.

    All fields are derived purely from the schema, so a profile is valid
    for as long as the payload it was built from.
    """

    schema_id: int | None
    #: Element paths in canonical schema order — the similarity-matrix
    #: column labels.
    element_paths: list[str]
    #: path -> owning entity name (``patient.height`` -> ``patient``).
    entity_of: dict[str, str]
    #: path -> normalized words of the element's local name, with and
    #: without abbreviation expansion (both views exist because matchers
    #: are individually configurable).
    words_expanded: dict[str, tuple[str, ...]]
    words_plain: dict[str, tuple[str, ...]]
    #: path -> neighboring-element context term set (the context
    #: matcher's per-element neighborhood).
    context_terms: dict[str, frozenset[str]]
    #: entity -> connected-component id (FK transitive closure).
    component_of: dict[str, int]
    #: attribute path -> declared-type family (datatype matcher).
    type_families: dict[str, str | None]
    #: entity -> union of its attributes' words (structure matcher).
    entity_attr_words: dict[str, frozenset[str]]
    #: entity -> number of its attributes (structure matcher).
    attribute_counts: dict[str, int]
    #: Lazily built NeighborhoodIndex.
    _neighborhoods: NeighborhoodIndex | None = field(
        default=None, repr=False, compare=False)

    @classmethod
    def build(cls, schema: Schema) -> "SchemaMatchProfile":
        """Derive every artifact from ``schema`` in one pass."""
        entity_of: dict[str, str] = {}
        words_expanded: dict[str, tuple[str, ...]] = {}
        words_plain: dict[str, tuple[str, ...]] = {}
        context_terms: dict[str, frozenset[str]] = {}
        type_families: dict[str, str | None] = {}
        entity_attr_words: dict[str, frozenset[str]] = {}
        attribute_counts: dict[str, int] = {}
        adjacency = entity_adjacency(schema)
        for entity in schema.entities.values():
            name = entity.name
            entity_of[name] = name
            # One (memoized) split per name; the expanded view is
            # derived from it, not re-split.
            words_plain[name] = analysed_words(name, False)
            entity_words = words_expanded[name] = analysed_words(name, True)
            attr_paths: list[str] = []
            attr_words: set[str] = set()
            for attr in entity.attributes:
                path = f"{name}.{attr.name}"
                attr_paths.append(path)
                entity_of[path] = name
                words_plain[path] = analysed_words(attr.name, False)
                words = words_expanded[path] = analysed_words(attr.name, True)
                attr_words.update(words)
                type_families[path] = type_family(attr.data_type)
            frozen_attr_words = frozenset(attr_words)
            entity_attr_words[name] = frozen_attr_words
            attribute_counts[name] = len(attr_paths)
            # Every attribute of an entity shares one context set: the
            # entity's name words plus all sibling attribute words.
            shared = frozen_attr_words.union(entity_words)
            for path in attr_paths:
                context_terms[path] = shared
            # The entity element additionally sees FK-adjacent entity
            # name words.
            context_terms[name] = shared.union(
                *(analysed_words(neighbor, True)
                  for neighbor in adjacency.get(name, ())))

        component_of: dict[str, int] = {}
        components = entity_components(schema, adjacency=adjacency)
        for component_id, component in enumerate(components):
            for entity_name in component:
                component_of[entity_name] = component_id

        return cls(
            schema_id=schema.schema_id,
            element_paths=list(entity_of),
            entity_of=entity_of,
            words_expanded=words_expanded,
            words_plain=words_plain,
            context_terms=context_terms,
            component_of=component_of,
            type_families=type_families,
            entity_attr_words=entity_attr_words,
            attribute_counts=attribute_counts,
        )

    # -- fast-path accessors -------------------------------------------

    def words(self, path: str, expand: bool = True) -> tuple[str, ...]:
        """Normalized words of one element's local name."""
        table = self.words_expanded if expand else self.words_plain
        try:
            return table[path]
        except KeyError:
            raise SchemaError(f"profile has no element {path!r}") from None

    def neighborhood_index(self) -> NeighborhoodIndex:
        """The schema's (cached) NeighborhoodIndex, built from the
        precomputed component map — no graph traversal per query."""
        index = self._neighborhoods
        if index is None:
            index = NeighborhoodIndex.from_component_map(self.component_of)
            self._neighborhoods = index
        return index


class MatchScratch:
    """Per-query memoization shared across candidates.

    ``columns`` maps a column matcher to its
    :class:`~repro.matching.base.ColumnMemo`: column key (the candidate
    element's words, context set, type family...) -> the scores of
    every query row against that key (``None`` when all zero).  A memo
    belongs to one matcher instance, because a column bakes in the
    matcher's own settings (``expand``, ``threshold``).  Everything
    here is a *pure* function of its key and the query; columns are
    immutable tuples, so a matrix built from one copies it.
    """

    __slots__ = ("columns", "_row_labels")

    def __init__(self) -> None:
        self.columns: dict[object, ColumnMemo] = {}
        self._row_labels: list[str] | None = None

    def row_labels(self, query: "QueryGraph") -> list[str]:
        """The query's element labels, computed once per search."""
        labels = self._row_labels
        if labels is None:
            labels = query.element_labels()
            self._row_labels = labels
        return labels


class PayloadSource(Protocol):  # pragma: no cover - typing only
    """Where by-id reads find a schema's payload (the repository)."""

    def payload(self, schema_id: int) -> bytes:
        ...


class ProfileStore:
    """LRU cache of (schema, match profile) pairs, keyed by payload.

    :meth:`lookup` hits only when the entry was decoded from the very
    payload bytes the caller read (phase 2: from the index generation
    it searched), so a changed schema is decoded afresh and nothing
    ever invalidates the cache; a fill that loses a race merely
    replaces an entry the next lookup re-checks.  The by-id reads
    :meth:`get_schema`/:meth:`get_profile` take the payload from
    ``source`` (None: a cache used only through :meth:`lookup`).
    Thread-safe.
    """

    def __init__(self, source: PayloadSource | None = None,
                 capacity: int = 1024) -> None:
        if capacity <= 0:
            raise RepositoryError(
                f"profile cache capacity must be positive, got {capacity}")
        self._source = source
        self._capacity = capacity
        self._lock = threading.Lock()
        self._entries: \
            "OrderedDict[int, tuple[bytes, Schema, SchemaMatchProfile]]" \
            = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def lookup(self, schema_id: int, payload: bytes | memoryview
               ) -> tuple[Schema, SchemaMatchProfile]:
        """The schema decoded from ``payload`` and its profile: one
        cache lookup, decoded and built on a miss.

        Returned objects are shared across callers — treat them as
        immutable; use :meth:`repro.model.schema.Schema.copy` before
        mutating.
        """
        if type(payload) is not bytes:
            payload = bytes(payload)
        with self._lock:
            entry = self._entries.get(schema_id)
            if entry is not None and entry[0] == payload:
                self._entries.move_to_end(schema_id)
                self._hits += 1
                return entry[1], entry[2]
            self._misses += 1
        # Decode and build outside the lock: they are the slow part.
        from repro.resilience.faults import FAULTS
        FAULTS.hit("profile_store.lookup")
        schema = Schema.from_payload(payload)
        if schema.schema_id != schema_id:
            raise RepositoryError(
                f"payload stored for schema {schema_id} holds schema "
                f"{schema.schema_id}")
        profile = SchemaMatchProfile.build(schema)
        with self._lock:
            self._entries[schema_id] = (payload, schema, profile)
            self._entries.move_to_end(schema_id)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
        return schema, profile

    def get_schema(self, schema_id: int) -> Schema:
        """The schema ``source`` stores under ``schema_id``."""
        return self._by_id(schema_id)[0]

    def get_profile(self, schema_id: int) -> SchemaMatchProfile:
        """The match profile of the schema ``source`` stores under
        ``schema_id``."""
        return self._by_id(schema_id)[1]

    def _by_id(self, schema_id: int) -> tuple[Schema, SchemaMatchProfile]:
        if self._source is None:
            raise RepositoryError(
                "this profile cache has no source for by-id reads")
        return self.lookup(schema_id, self._source.payload(schema_id))

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, schema_id: int) -> bool:
        with self._lock:
            return schema_id in self._entries

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def hits(self) -> int:
        """Lookups served from cache."""
        with self._lock:
            return self._hits

    @property
    def misses(self) -> int:
        """Lookups that decoded a payload and built its profile."""
        with self._lock:
            return self._misses

    @property
    def evictions(self) -> int:
        """Entries dropped to stay within capacity (LRU overflow)."""
        with self._lock:
            return self._evictions

    @property
    def hit_rate(self) -> float:
        with self._lock:
            total = self._hits + self._misses
            return self._hits / total if total else 0.0
