"""The match-phase acceleration layer: precomputed schema profiles.

Phases two and three of the pipeline used to re-derive everything per
candidate per query: re-parse the stored JSON payload, re-split and
re-normalize every element name, rebuild the entity adjacency map twice
(context matcher and tightness scorer), and re-run the foreign-key
transitive closure.  A :class:`SchemaMatchProfile` computes all of those
artifacts exactly once — at index/ingest time — so a query's match phase
collapses to dict lookups plus arithmetic:

* analyzed element words (abbreviation-expanded and plain) per element;
* weighted n-gram profiles for every distinct word and squashed name
  (seeded into the process-wide gram cache, see
  :func:`repro.matching.ngram.warm_gram_cache`);
* neighboring-element context term sets per element;
* the undirected entity adjacency map and the FK transitive closure
  (component map) feeding :class:`~repro.scoring.neighborhood.NeighborhoodIndex`;
* declared-type families and per-entity attribute word sets for the
  datatype and structure matchers.

:class:`ProfileStore` is the serving side: an LRU read-through cache of
``(schema, profile)`` pairs fronting any ``SchemaSource``, so a candidate
fetched (and profiled) for one query is free for the next.  The
repository invalidates entries on ``update_schema``/``delete_schema``
and the changelog-driven :class:`~repro.repository.indexer.RepositoryIndexer`
rebuilds them on refresh.

:class:`MatchScratch` is the per-query companion: memoization shared
across the candidates (and worker threads) of one search — whole score
columns of the name and context matchers, keyed by the candidate
element's words or context set, and the query-side artifacts every
matcher would otherwise recompute per candidate.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol

from repro.errors import RepositoryError, SchemaError
from repro.matching.datatype import type_family
from repro.matching.ngram import warm_gram_cache, weighted_gram_profile
from repro.matching.normalize import analysed_words
from repro.model.graph import entity_adjacency
from repro.model.schema import Schema
from repro.scoring.neighborhood import NeighborhoodIndex, entity_components

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.query import QueryGraph


@dataclass(slots=True)
class SchemaMatchProfile:
    """Per-schema artifacts every matcher needs, computed once.

    All fields are derived purely from the schema, so a profile is valid
    until the schema changes (the repository invalidates on mutation).
    The profile is serializable (:meth:`to_dict` / :meth:`from_dict`) so
    offline indexers can persist it next to the index segment.
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
    #: Undirected entity-level FK adjacency.
    adjacency: dict[str, frozenset[str]]
    #: entity -> connected-component id (FK transitive closure).
    component_of: dict[str, int]
    #: attribute path -> declared-type family (datatype matcher).
    type_families: dict[str, str | None]
    #: entity -> union of its attributes' words (structure matcher).
    entity_attr_words: dict[str, frozenset[str]]
    #: distinct word / squashed name -> (gram set, total weight); the
    #: ingest-time half of the weighted n-gram similarity.
    word_grams: dict[str, tuple[frozenset[str], float]]
    #: Lazily rehydrated NeighborhoodIndex (not serialized).
    _neighborhoods: NeighborhoodIndex | None = field(
        default=None, repr=False, compare=False)

    @classmethod
    def build(cls, schema: Schema) -> "SchemaMatchProfile":
        """Derive every artifact from ``schema`` in one pass."""
        element_paths: list[str] = []
        entity_of: dict[str, str] = {}
        words_expanded: dict[str, tuple[str, ...]] = {}
        words_plain: dict[str, tuple[str, ...]] = {}
        for ref in schema.elements():
            path = ref.path
            element_paths.append(path)
            entity_of[path] = ref.entity
            # One (memoized) split per name; the expanded view is
            # derived from it, not re-split.
            name = ref.local_name
            words_plain[path] = analysed_words(name, False)
            words_expanded[path] = analysed_words(name, True)

        adjacency = entity_adjacency(schema)
        component_of: dict[str, int] = {}
        components = entity_components(schema, adjacency=adjacency)
        for component_id, component in enumerate(components):
            for entity in component:
                component_of[entity] = component_id

        context_terms: dict[str, frozenset[str]] = {}
        type_families: dict[str, str | None] = {}
        entity_attr_words: dict[str, frozenset[str]] = {}
        for entity in schema.entities.values():
            attr_words: set[str] = set()
            for attr in entity.attributes:
                path = f"{entity.name}.{attr.name}"
                attr_words.update(words_expanded[path])
                type_families[path] = type_family(attr.data_type)
            frozen_attr_words = frozenset(attr_words)
            entity_attr_words[entity.name] = frozen_attr_words
            # Every attribute of an entity shares one context set: the
            # entity's name words plus all sibling attribute words.
            shared = frozen_attr_words.union(words_expanded[entity.name])
            for attr in entity.attributes:
                context_terms[f"{entity.name}.{attr.name}"] = shared
            # The entity element additionally sees FK-adjacent entity
            # name words.
            context_terms[entity.name] = shared.union(
                *(words_expanded[neighbor]
                  for neighbor in adjacency.get(entity.name, ())))

        word_grams: dict[str, tuple[frozenset[str], float]] = {}
        for table in (words_expanded, words_plain):
            for words in table.values():
                if not words:
                    continue
                for word in words:
                    if word not in word_grams:
                        word_grams[word] = weighted_gram_profile(word)
                squashed = "".join(words)
                if squashed not in word_grams:
                    word_grams[squashed] = weighted_gram_profile(squashed)

        return cls(
            schema_id=schema.schema_id,
            element_paths=element_paths,
            entity_of=entity_of,
            words_expanded=words_expanded,
            words_plain=words_plain,
            context_terms=context_terms,
            adjacency={name: frozenset(neighbors)
                       for name, neighbors in adjacency.items()},
            component_of=component_of,
            type_families=type_families,
            entity_attr_words=entity_attr_words,
            word_grams=word_grams,
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
        """The schema's (cached) NeighborhoodIndex, rehydrated from the
        precomputed component map — no graph traversal per query."""
        index = self._neighborhoods
        if index is None:
            index = NeighborhoodIndex.from_component_map(self.component_of)
            self._neighborhoods = index
        return index

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe form (sets become sorted lists)."""
        return {
            "schema_id": self.schema_id,
            "element_paths": list(self.element_paths),
            "entity_of": dict(self.entity_of),
            "words_expanded": {path: list(words)
                               for path, words in self.words_expanded.items()},
            "words_plain": {path: list(words)
                            for path, words in self.words_plain.items()},
            "context_terms": {path: sorted(terms)
                              for path, terms in self.context_terms.items()},
            "adjacency": {name: sorted(neighbors)
                          for name, neighbors in self.adjacency.items()},
            "component_of": dict(self.component_of),
            "type_families": dict(self.type_families),
            "entity_attr_words": {
                name: sorted(words)
                for name, words in self.entity_attr_words.items()},
            "word_grams": {word: [sorted(grams), weight]
                           for word, (grams, weight)
                           in self.word_grams.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SchemaMatchProfile":
        """Inverse of :meth:`to_dict`; re-seeds the process gram cache."""
        try:
            word_grams = {word: (frozenset(grams), float(weight))
                          for word, (grams, weight)
                          in data["word_grams"].items()}
            profile = cls(
                schema_id=data["schema_id"],
                element_paths=list(data["element_paths"]),
                entity_of=dict(data["entity_of"]),
                words_expanded={path: tuple(words) for path, words
                                in data["words_expanded"].items()},
                words_plain={path: tuple(words) for path, words
                             in data["words_plain"].items()},
                context_terms={path: frozenset(terms) for path, terms
                               in data["context_terms"].items()},
                adjacency={name: frozenset(neighbors) for name, neighbors
                           in data["adjacency"].items()},
                component_of={name: int(component) for name, component
                              in data["component_of"].items()},
                type_families=dict(data["type_families"]),
                entity_attr_words={name: frozenset(words) for name, words
                                   in data["entity_attr_words"].items()},
                word_grams=word_grams,
            )
        except KeyError as exc:
            raise SchemaError(f"profile dict missing key {exc}") from exc
        warm_gram_cache(word_grams)
        return profile


class MatchScratch:
    """Per-query memoization shared across candidates and workers.

    ``name_columns`` / ``context_columns`` map a matcher instance to its
    score-column memo: candidate element words (name) or frozen context
    term set (context) -> the thresholded scores of every query row
    against that element (``None`` when all zero).  An instance owns
    its dict because a column bakes in the matcher's own settings
    (``expand``, ``threshold``).  Everything here is a *pure* function
    of its key and the query, so sharing one scratch across the
    ``match_workers`` threads of a parallel match phase is safe: two
    threads racing on the same key each store an equal array (CPython
    dict reads/writes are atomic under the GIL), and a matrix copies
    the column into its own storage, so no matrix aliases a memo entry.
    """

    __slots__ = ("name_columns", "context_columns", "matcher_memo",
                 "_row_labels")

    def __init__(self) -> None:
        self.name_columns: dict[object, dict] = {}
        self.context_columns: dict[object, dict] = {}
        #: matcher name (plus any setting the artifact depends on) ->
        #: its prepared query-side artifact.
        self.matcher_memo: dict[object, object] = {}
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
    apart.  Mutation paths call :meth:`invalidate` (repository CRUD) or
    :meth:`put` (indexer refresh) to keep the cache honest.

    Thread-safe: the engine's parallel match phase reads from worker
    threads while the scheduled indexer refreshes from another.
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
        """Eagerly (re)build the entry for ``schema`` — the ingest path.

        Called by the repository indexer while applying changelog
        entries, so profiles are ready before the first query needs
        them.
        """
        if schema.schema_id is None:
            raise RepositoryError(
                "cannot profile a schema without an id; store it first")
        profile = self._admit(schema)[1]
        with self._lock:
            self._version += 1
        return profile

    def invalidate(self, schema_id: int) -> bool:
        """Drop one entry; returns whether it was cached."""
        with self._lock:
            self._version += 1
            return self._entries.pop(schema_id, None) is not None

    def clear(self) -> None:
        with self._lock:
            self._version += 1
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
        # Fetch and build outside the lock: sqlite and profile building
        # are the slow parts, and a racing double-build is benign.
        from repro.resilience.faults import FAULTS
        FAULTS.hit("profile_store.lookup")
        schema = self._source.get_schema(schema_id)
        return self._admit(schema)

    def _admit(self, schema: Schema) \
            -> tuple[Schema, SchemaMatchProfile]:
        profile = SchemaMatchProfile.build(schema)
        entry = (schema, profile)
        assert schema.schema_id is not None
        with self._lock:
            self._entries[schema.schema_id] = entry
            self._entries.move_to_end(schema.schema_id)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
        return entry
