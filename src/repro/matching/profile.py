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
profiles are never serialized: a cache miss fetches the schema and
builds.

:class:`ProfileStore` is the serving side: an LRU read-through cache of
``(schema, profile)`` pairs fronting any ``SchemaSource``, so a candidate
fetched (and profiled) for one query is free for the next.  The
repository invalidates entries on ``update_schema``/``delete_schema``,
and the changelog-driven :class:`~repro.repository.indexer.RepositoryIndexer`
invalidates the ones a refresh touches; the next search that needs
them rebuilds them.

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
    until the schema changes (the repository invalidates on mutation).
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


class SchemaSourceLike(Protocol):  # pragma: no cover - typing only
    """Anything that resolves schema ids to schemas."""

    def get_schema(self, schema_id: int) -> Schema:
        ...


class ProfileStore:
    """LRU read-through cache of (schema, match profile) pairs.

    Fronts any ``SchemaSource``: :meth:`get_schema` satisfies the engine
    protocol from cache, falling through to the underlying source on a
    miss; :meth:`get_profile` serves the precomputed artifacts.  The
    schema and its profile live in one entry, so they can never drift
    apart.  Mutation paths (repository CRUD, the indexer's refresh)
    call :meth:`invalidate` to keep the cache honest; read-through fills
    whatever searches ask for next.

    A fill fetches outside the lock, so a write can land while it is in
    flight.  Each miss registers a token under the lock, and
    :meth:`put`, :meth:`invalidate` and :meth:`clear` drop it: a fill
    whose token is gone returns what it fetched to its caller but never
    caches it, so an older copy cannot overwrite or outlive a newer one.

    Thread-safe: concurrent searches read from serving threads while
    the scheduled indexer refreshes from another.
    """

    def __init__(self, source: SchemaSourceLike,
                 capacity: int = 1024) -> None:
        if capacity <= 0:
            raise RepositoryError(
                f"profile cache capacity must be positive, got {capacity}")
        self._source = source
        self._capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[int, tuple[Schema, SchemaMatchProfile]]" \
            = OrderedDict()
        #: schema id -> token of the read-through fill in flight for it.
        self._fills: dict[int, object] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._version = 0

    # -- SchemaSource protocol -----------------------------------------

    def get_schema(self, schema_id: int) -> Schema:
        """The cached schema (read-through on miss).

        Returned objects are shared across callers — treat as
        immutable; use :meth:`repro.model.schema.Schema.copy` before
        mutating.
        """
        return self._entry(schema_id)[0]

    def get_profile(self, schema_id: int) -> SchemaMatchProfile:
        """The cached match profile (read-through on miss)."""
        return self._entry(schema_id)[1]

    # -- cache management ----------------------------------------------

    def put(self, schema: Schema) -> SchemaMatchProfile:
        """Eagerly (re)build the entry for ``schema``, so its profile is
        ready before the first query needs it."""
        if schema.schema_id is None:
            raise RepositoryError(
                "cannot profile a schema without an id; store it first")
        return self._admit(schema, None)[1]

    def invalidate(self, schema_id: int) -> bool:
        """Drop one entry; returns whether it was cached."""
        with self._lock:
            self._version += 1
            self._fills.pop(schema_id, None)
            return self._entries.pop(schema_id, None) is not None

    def clear(self) -> None:
        with self._lock:
            self._version += 1
            self._fills.clear()
            self._entries.clear()

    @property
    def version(self) -> int:
        """Moves on every :meth:`put`, :meth:`invalidate` and
        :meth:`clear` — and with the wrapped source's own ``version``,
        when it has one — but never on a read-through fill.  The
        engine's result cache is stamped with it."""
        with self._lock:
            own = self._version
        return own + getattr(self._source, "version", 0)

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
        """Lookups that fell through to the source (and rebuilt)."""
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

    # -- internals -----------------------------------------------------

    def _entry(self, schema_id: int) -> tuple[Schema, SchemaMatchProfile]:
        with self._lock:
            entry = self._entries.get(schema_id)
            if entry is not None:
                self._entries.move_to_end(schema_id)
                self._hits += 1
                return entry
            self._misses += 1
            token = self._fills[schema_id] = object()
        # Fetch and build outside the lock: sqlite and profile building
        # are the slow parts.  A racing double-build is benign; a write
        # landing meanwhile drops the token, so the fill is not cached.
        from repro.resilience.faults import FAULTS
        try:
            FAULTS.hit("profile_store.lookup")
            return self._admit(self._source.get_schema(schema_id), token)
        except BaseException:
            with self._lock:
                if self._fills.get(schema_id) is token:
                    del self._fills[schema_id]
            raise

    def _admit(self, schema: Schema, token: object | None) \
            -> tuple[Schema, SchemaMatchProfile]:
        """Build and cache ``schema``'s entry.  ``token`` is the fill's
        in-flight token (None for :meth:`put`); a superseded fill's
        entry is returned but not cached."""
        profile = SchemaMatchProfile.build(schema)
        entry = (schema, profile)
        schema_id = schema.schema_id
        assert schema_id is not None
        with self._lock:
            if token is None:
                self._version += 1
            elif self._fills.get(schema_id) is not token:
                return entry
            self._fills.pop(schema_id, None)
            self._entries[schema_id] = entry
            self._entries.move_to_end(schema_id)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
        return entry
