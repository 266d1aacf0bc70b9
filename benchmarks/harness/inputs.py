"""Generated inputs: the only thing ``--seed`` drives.

The corpus and the intent catalogs belong to the fixture (fixed corpus
seed); the workload seed picks which queries are sent, in which order,
and which schemas the writer adds, updates and deletes.  The program
under test receives these inputs and nothing else — never a workload
name.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from typing import NamedTuple

from repro.corpus.domains import DOMAINS
from repro.corpus.generator import CorpusGenerator, GeneratedSchema
from repro.corpus.groundtruth import QuerySampler
from repro.index.documents import document_from_schema
from repro.model.schema import Schema
from repro.workload import (
    QueryCatalog,
    SessionGenerator,
    WorkloadSpec,
    fragment_for,
)

#: Intents in the Zipf catalog of serve_zipf_http.
ZIPF_CATALOG_SIZE = 200

#: CRUD batch shape of ingest_under_read: the issue's 150/100/50 scaled
#: by 1/5 so a 10 s run holds several batches; the 3:2:1 mix is kept.
BATCH_ADDS, BATCH_UPDATES, BATCH_DELETES = 30, 20, 10


class Query(NamedTuple):
    keywords: tuple[str, ...]
    fragment: str | None

    @property
    def text(self) -> str:
        """The keyword box as typed: what every target receives."""
        return " ".join(self.keywords)


def zipf_catalog(corpus: list[GeneratedSchema], corpus_seed: int
                 ) -> QueryCatalog:
    """The 200-intent Zipf(1.1) catalog — part of the fixture.

    Seeded from the corpus seed, not the workload seed: with Zipf 1.1
    the first few intents carry most of the traffic, so re-drawing
    them per run would make every run a different workload.
    """
    sampler = QuerySampler(corpus, DOMAINS, seed=corpus_seed)
    return QueryCatalog(_distinct_intents(sampler, ZIPF_CATALOG_SIZE),
                        zipf_exponent=1.1)


def _distinct_intents(sampler: QuerySampler, count: int) -> list:
    seen = set()
    intents = []
    # A small corpus may hold fewer distinct intents than asked for;
    # the draw budget bounds the loop and the caller gets what exists.
    for _ in range(count * 20):
        if len(intents) == count:
            break
        for query in sampler.sample(16):
            key = tuple(query.canonical_keywords)
            if key not in seen and len(intents) < count:
                seen.add(key)
                intents.append(query)
    return intents


def zipf_stream(catalog: QueryCatalog, seed: int, count: int) -> list[Query]:
    """``count`` session queries: Zipf intents, 20% DDL-fragment POSTs,
    35% reformulations, in session arrival order."""
    spec = WorkloadSpec(seed=seed, sessions=max(1, count // 2))
    out: list[Query] = []
    for session in SessionGenerator(catalog, spec).sessions():
        for event in session.queries:
            out.append(Query(tuple(event.keywords), event.fragment))
            if len(out) == count:
                return out
    return out


def keyword_queries(corpus: list[GeneratedSchema], seed: int, count: int
                    ) -> list[Query]:
    """Distinct 2-5-term keyword queries from indexed vocabularies.

    No two share an analyzed term set, so none can hit the phase-1
    query cache.
    """
    rng = random.Random(f"{seed}:keywords")
    vocabularies = [sorted(set(document_from_schema(g.schema).terms))
                    for g in corpus]
    vocabularies = [terms for terms in vocabularies if len(terms) >= 2]
    seen = set()
    out: list[Query] = []
    for _ in range(count * 20):
        if len(out) == count:
            break
        terms = rng.choice(vocabularies)
        picked = rng.sample(terms, min(len(terms), rng.randint(2, 5)))
        key = frozenset(picked)
        if key not in seen:
            seen.add(key)
            out.append(Query(tuple(picked), None))
    return out


def fragment_queries(corpus: list[GeneratedSchema], seed: int, count: int
                     ) -> list[Query]:
    """Distinct keyword + DDL-fragment queries, one per intent."""
    sampler = QuerySampler(corpus, DOMAINS, seed=seed)
    return [Query(tuple(intent.keywords), fragment_for(intent))
            for intent in _distinct_intents(sampler, count)]


@dataclass
class Batch:
    """One writer batch: schemas to add, replace and delete."""

    adds: list[Schema]
    updates: list[Schema]
    deletes: list[int]

    @property
    def ops(self) -> int:
        return len(self.adds) + len(self.updates) + len(self.deletes)


def crud_plan(corpus: list[GeneratedSchema], seed: int) -> list[Batch]:
    """Every CRUD batch the stored corpus allows, in writer order.

    Adds are fresh generated schemas; updates re-describe a stored
    schema (its index document changes); deletes remove stored schemas.
    Each batch updates only schemas that no batch up to and including
    it deletes, so every op is valid whatever the writer reached.
    """
    rng = random.Random(f"{seed}:crud")
    generator = CorpusGenerator(seed=rng.randrange(1 << 30),
                                junk_fraction=0.0)
    victims = [g.schema for g in corpus]
    rng.shuffle(victims)
    plan = []
    for index in range((len(victims) - BATCH_UPDATES) // BATCH_DELETES):
        doomed = (index + 1) * BATCH_DELETES
        updates = []
        for schema in rng.sample(victims[doomed:], BATCH_UPDATES):
            changed = copy.deepcopy(schema)
            changed.description = (f"{schema.description} revised "
                                   f"batch {index}").strip()
            updates.append(changed)
        plan.append(Batch(
            adds=[g.schema for g in generator.generate(BATCH_ADDS)],
            updates=updates,
            deletes=[s.schema_id
                     for s in victims[doomed - BATCH_DELETES:doomed]]))
    return plan
