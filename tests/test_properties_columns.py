"""Property tests: the profiled column fill equals the cold cell loop.

The name and context matchers fill a candidate's matrix column by
column from a per-query memo keyed by the element's words / context
set.  These tests generate query graphs and candidate schemas from a
small identifier alphabet — so names repeat across candidates, some
names analyse to no words at all (``_``, ``__``), and thresholds sit
exactly on scores that occur — and hold every profiled matrix to the
cold reference path with ``np.array_equal``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import SchemrEngine
from repro.index.documents import document_from_schema
from repro.index.inverted import InvertedIndex
from repro.matching.context import ContextMatcher
from repro.matching.name import NameMatcher
from repro.matching.normalize import normalize_words
from repro.matching.profile import MatchScratch, ProfileStore, \
    SchemaMatchProfile
from repro.model.elements import Attribute, Entity, ForeignKey
from repro.model.query import QueryGraph
from repro.model.schema import Schema

from tests.conftest import cold_engine

#: Few enough that names repeat; includes abbreviations the analyser
#: expands, case/delimiter variants and names with no words at all.
IDENTIFIERS = ["id", "name", "Name", "patient", "pat_ht", "height", "ht",
               "dob", "birth_date", "qty", "amount", "site_id", "site",
               "_", "__", "PatientHeight"]

identifiers = st.sampled_from(IDENTIFIERS)


@st.composite
def schemas(draw, name: str = "s") -> Schema:
    entity_names = draw(st.lists(identifiers, min_size=1, max_size=3,
                                 unique=True))
    schema = Schema(name=name)
    for entity_name in entity_names:
        attributes = draw(st.lists(identifiers, min_size=1, max_size=4,
                                   unique=True))
        schema.add_entity(Entity(entity_name,
                                 [Attribute(a) for a in attributes]))
    entities = list(schema.entities.values())
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        source = draw(st.sampled_from(entities))
        target = draw(st.sampled_from(entities))
        if source.name != target.name:
            schema.add_foreign_key(ForeignKey(
                source.name, source.attributes[0].name,
                target.name, target.attributes[0].name))
    return schema


@st.composite
def queries(draw) -> QueryGraph:
    keywords = draw(st.lists(identifiers, max_size=3))
    fragments = draw(st.lists(schemas(name="q"), max_size=2))
    if not keywords and not fragments:
        keywords = [draw(identifiers)]
    return QueryGraph.build(keywords=keywords, fragments=fragments)


def _profiled(schema: Schema, schema_id: int) -> SchemaMatchProfile:
    schema.schema_id = schema_id
    return SchemaMatchProfile.build(schema)


def _threshold_on_a_score(data, matcher_cls, query, candidates) -> float:
    """A threshold equal to a score the pairs really produce (0 when
    every score is 0), so ``score >= threshold`` is hit with equality."""
    scores = sorted({float(v)
                     for candidate in candidates
                     for v in matcher_cls(threshold=0.0).match(
                         query, candidate).values.ravel()
                     if 0.0 < v < 1.0})
    if not scores:
        return 0.0
    return data.draw(st.sampled_from(scores), label="threshold")


MATCHER_CLASSES = [NameMatcher, ContextMatcher]


class TestColumnFillEqualsCellLoop:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), query=queries(), first=schemas(),
           second=schemas(name="t"))
    def test_shared_scratch_both_orders(self, data, query, first, second):
        profiles = {id(first): _profiled(first, 1),
                    id(second): _profiled(second, 2)}
        for matcher_cls in MATCHER_CLASSES:
            threshold = _threshold_on_a_score(data, matcher_cls, query,
                                              [first, second])
            matcher = matcher_cls(threshold=threshold)
            cold = {id(s): matcher.match(query, s) for s in (first, second)}
            for order in ((first, second), (second, first)):
                scratch = MatchScratch()
                for candidate in order:
                    fast = matcher.match(query, candidate,
                                         profile=profiles[id(candidate)],
                                         scratch=scratch)
                    assert fast.row_labels == cold[id(candidate)].row_labels
                    assert fast.col_labels == cold[id(candidate)].col_labels
                    assert np.array_equal(fast.values,
                                          cold[id(candidate)].values)

    @settings(max_examples=40, deadline=None)
    @given(query=queries(), candidate=schemas())
    def test_profile_without_scratch(self, query, candidate):
        profile = _profiled(candidate, 1)
        for matcher in (NameMatcher(), NameMatcher(expand=False),
                        ContextMatcher()):
            assert np.array_equal(
                matcher.match(query, candidate, profile=profile).values,
                matcher.match(query, candidate).values)

    @settings(max_examples=30, deadline=None)
    @given(query=queries(), candidate=schemas())
    def test_matchers_keep_separate_memos_in_one_scratch(self, query,
                                                         candidate):
        # Same class, different settings, one scratch: a column baked
        # with one threshold/expansion must never serve the other.
        profile = _profiled(candidate, 1)
        scratch = MatchScratch()
        for matcher in (NameMatcher(threshold=0.0),
                        NameMatcher(threshold=0.5, expand=False),
                        ContextMatcher(threshold=0.0),
                        ContextMatcher(threshold=0.5)):
            assert np.array_equal(
                matcher.match(query, candidate, profile=profile,
                              scratch=scratch).values,
                matcher.match(query, candidate).values)


def _page_bytes(results) -> list[tuple]:
    return [(r.schema_id, f"{r.score:.6f}", f"{r.coarse_score:.6f}",
             r.match_count, r.best_anchor,
             [(m.query_label, m.element_path, f"{m.score:.6f}")
              for m in r.element_matches])
            for r in results]


class TestEngineWorkers:
    """One scratch per search is shared by every candidate; the page
    must not depend on whether match profiles were precomputed."""

    @settings(max_examples=15, deadline=None)
    @given(corpus=st.lists(schemas(), min_size=4, max_size=10),
           fragments=st.lists(schemas(name="q"), min_size=1, max_size=2),
           keywords=st.lists(identifiers, max_size=2))
    def test_one_vs_four_workers_byte_identical(self, corpus, fragments,
                                                keywords):
        schemas_by_id = {}
        index = InvertedIndex()
        for schema_id, schema in enumerate(corpus, start=1):
            schema.name = f"s{schema_id}"
            schema.schema_id = schema_id
            schemas_by_id[schema_id] = schema
            index.add(document_from_schema(schema))
        query = QueryGraph.build(keywords=keywords, fragments=fragments)
        engines = [
            cold_engine(index),
            SchemrEngine(index=index, source=ProfileStore()),
        ]
        try:
            cold, profiled = (
                _page_bytes(engine.search_graph(query, top_n=5))
                for engine in engines)
            assert profiled == cold
        finally:
            for engine in engines:
                engine.close()


class TestNormalizeWordsCopies:
    @given(name=st.sampled_from(IDENTIFIERS + ["dob_qty", "fname"]))
    def test_mutating_a_result_leaves_the_memo_alone(self, name):
        first = normalize_words(name)
        expected = list(first)
        first.append("mutated")
        first[:0] = ["x"]
        assert normalize_words(name) == expected
        plain = normalize_words(name, expand=False)
        expected_plain = list(plain)
        plain.clear()
        assert normalize_words(name, expand=False) == expected_plain
        assert normalize_words(name) is not normalize_words(name)
