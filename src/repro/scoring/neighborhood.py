"""Entity neighborhoods: transitive closure on foreign keys.

The paper's distance measure needs to know, for elements e_i and e_j,
whether they are (a) in the same entity, (b) in the same *entity
neighborhood* — "transitive closure on foreign key" — or (c) in
unrelated entities.  A neighborhood is therefore a connected component
of the undirected entity-level FK graph.
"""

from __future__ import annotations

from repro.errors import SchemaError
from repro.model.graph import entity_adjacency
from repro.model.schema import Schema


def entity_components(schema: Schema,
                      adjacency: dict[str, set[str]] | None = None
                      ) -> list[set[str]]:
    """Connected components of the entity-level foreign-key graph.

    Isolated entities form singleton components.  Computed with an
    iterative DFS so pathological chain schemas cannot blow the stack.
    Pass ``adjacency`` when the caller already holds the schema's
    adjacency map (the profile builder computes it exactly once).
    """
    if adjacency is None:
        adjacency = entity_adjacency(schema)
    seen: set[str] = set()
    components: list[set[str]] = []
    for start in adjacency:
        if start in seen:
            continue
        component: set[str] = set()
        stack = [start]
        while stack:
            node = stack.pop()
            if node in component:
                continue
            component.add(node)
            stack.extend(adjacency[node] - component)
        seen.update(component)
        components.append(component)
    return components


class NeighborhoodIndex:
    """O(1) same-entity / same-neighborhood / unrelated classification."""

    SAME_ENTITY = "same_entity"
    SAME_NEIGHBORHOOD = "same_neighborhood"
    UNRELATED = "unrelated"

    def __init__(self, schema: Schema | None = None, *,
                 component_of: dict[str, int] | None = None) -> None:
        if component_of is not None:
            if schema is not None:
                raise SchemaError(
                    "pass either a schema or a component map, not both")
            self._component_of = dict(component_of)
            return
        if schema is None:
            raise SchemaError("a schema or a component map is required")
        self._component_of = {}
        for component_id, component in enumerate(entity_components(schema)):
            for entity in component:
                self._component_of[entity] = component_id

    @classmethod
    def from_component_map(cls, component_of: dict[str, int]
                           ) -> "NeighborhoodIndex":
        """Rehydrate from a precomputed entity -> component-id map.

        This is the fast path used by
        :class:`~repro.matching.profile.SchemaMatchProfile`: the
        transitive closure is computed once per profile and served
        as a dict lookup per query.
        """
        return cls(component_of=component_of)

    def component_id(self, entity: str) -> int:
        try:
            return self._component_of[entity]
        except KeyError:
            raise SchemaError(f"unknown entity {entity!r}") from None

    def relation(self, entity_a: str, entity_b: str) -> str:
        """Classify the pair into the paper's three distance buckets."""
        if entity_a == entity_b:
            return self.SAME_ENTITY
        if self.component_id(entity_a) == self.component_id(entity_b):
            return self.SAME_NEIGHBORHOOD
        return self.UNRELATED

    def same_neighborhood(self, entity_a: str, entity_b: str) -> bool:
        return self.component_id(entity_a) == self.component_id(entity_b)
