"""Phase 2 scored per distinct column key.

* A Hypothesis differential property: the column path (profiled
  candidates, per-search column memo, no per-candidate matrices) equals
  the cell-by-cell reference path exactly — element scores, final
  scores and materialised element matches — for all six matchers in
  any order, any weights (zeros included), ``cheap_only``, and
  keyword+fragment queries.
* Count gates: one search builds a ``SimilarityMatrix`` only for the
  results it materialises, and scores each distinct (query context,
  candidate context) pair once.
* Dotted entity names (``"order.items"``) search on the memory,
  segmented and sharded paths; a schema whose two elements would share
  one path is rejected when it is built.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.matching.context as context_mod
from repro.core.config import SchemrConfig
from repro.core.engine import SchemrEngine
from repro.corpus.generator import CorpusGenerator
from repro.errors import MatchError, QueryError, SchemaError
from repro.index.documents import document_from_schema
from repro.index.inverted import InvertedIndex
from repro.matching.base import SimilarityMatrix
from repro.matching.context import ContextMatcher
from repro.matching.datatype import DataTypeMatcher
from repro.matching.ensemble import MatcherEnsemble
from repro.matching.exact import ExactMatcher
from repro.matching.name import NameMatcher
from repro.matching.profile import MatchScratch, ProfileStore, \
    SchemaMatchProfile
from repro.matching.structure import StructureMatcher
from repro.matching.synonym import SynonymMatcher
from repro.model.elements import Attribute, Entity, ForeignKey
from repro.model.query import QueryGraph
from repro.model.schema import Schema
from repro.parsers.ddl import parse_ddl
from repro.parsers.xsd import parse_xsd
from repro.repository.store import SchemaRepository
from repro.resilience.guards import GuardedEnsemble
from repro.scoring.tightness import TightnessScorer
from repro.sharding import ShardedEngine

from tests.conftest import cold_engine

#: Few enough that names repeat; abbreviations, synonyms, case and
#: delimiter variants, and names that analyse to no words at all.
IDENTIFIERS = ["id", "name", "Name", "patient", "pat_ht", "height", "ht",
               "stature", "sex", "gender", "dob", "qty", "amount",
               "site_id", "site", "_", "PatientHeight"]
TYPES = ["INT", "VARCHAR(20)", "DATE", "DECIMAL(5,2)", "BOOLEAN", "uuid",
         "blob", ""]
WEIGHTS = [0.0, 0.5, 1.0, 2.0, 3.0]

identifiers = st.sampled_from(IDENTIFIERS)


@st.composite
def schemas(draw, name: str = "s") -> Schema:
    entity_names = draw(st.lists(identifiers, min_size=1, max_size=3,
                                 unique=True))
    schema = Schema(name=name)
    for entity_name in entity_names:
        attributes = draw(st.lists(identifiers, max_size=4, unique=True))
        schema.add_entity(Entity(entity_name, [
            Attribute(a, data_type=draw(st.sampled_from(TYPES)))
            for a in attributes]))
    with_attributes = [e for e in schema.entities.values() if e.attributes]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        if len(with_attributes) < 2:
            break
        source = draw(st.sampled_from(with_attributes))
        target = draw(st.sampled_from(with_attributes))
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


@st.composite
def ensembles(draw) -> MatcherEnsemble:
    matchers = draw(st.permutations([
        NameMatcher(), ContextMatcher(), ExactMatcher(), SynonymMatcher(),
        DataTypeMatcher(), StructureMatcher()]))
    weights = draw(st.lists(st.sampled_from(WEIGHTS), min_size=6,
                            max_size=6))
    if not any(weights):
        weights[draw(st.integers(min_value=0, max_value=5))] = 1.0
    return MatcherEnsemble(
        matchers=list(matchers),
        weights={m.name: w for m, w in zip(matchers, weights)})


def _fingerprint(results) -> list[tuple]:
    """Every float exactly, element matches included."""
    return [(r.schema_id, r.score, r.coarse_score, r.match_count,
             r.best_anchor, r.element_scores,
             [(m.query_label, m.element_path, m.score)
              for m in r.element_matches])
            for r in results]


class TestColumnPathEqualsReference:
    @settings(max_examples=40, deadline=None)
    @given(corpus=st.lists(schemas(), min_size=2, max_size=6),
           query=queries(), ensemble=ensembles(), cheap_only=st.booleans())
    def test_engine_differential(self, corpus, query, ensemble, cheap_only):
        schemas_by_id = {}
        index = InvertedIndex()
        for schema_id, schema in enumerate(corpus, start=1):
            schema.name = f"s{schema_id}"
            schema.schema_id = schema_id
            schemas_by_id[schema_id] = schema
            index.add(document_from_schema(schema))
        reference = cold_engine(index, ensemble=ensemble)
        columns = SchemrEngine(index=index, source=ProfileStore(),
                               ensemble=ensemble)
        try:
            if not reference.searcher.analyze_query(query.flatten()):
                # Nothing survives analysis (``_``): both refuse alike.
                for engine in (reference, columns):
                    with pytest.raises(QueryError):
                        engine.search_graph(query)
                return
            pool = reference.searcher.search(query.flatten(), top_n=10)
            assert _fingerprint(columns.match_and_score(
                query, pool, cheap_only=cheap_only)) == _fingerprint(
                reference.match_and_score(query, pool,
                                          cheap_only=cheap_only))
            assert _fingerprint(columns.search_graph(query, top_n=4)) == \
                _fingerprint(reference.search_graph(query, top_n=4))
        finally:
            reference.close()
            columns.close()

    @settings(max_examples=60, deadline=None)
    @given(candidates=st.lists(schemas(), min_size=1, max_size=3),
           query=queries(), ensemble=ensembles(), cheap_only=st.booleans())
    def test_guarded_columns_equal_combined_matrices(
            self, candidates, query, ensemble, cheap_only):
        """Against the matrix golden: each active matcher's cell loop,
        combined by ``SimilarityMatrix.combine``, collapsed by
        ``max_per_column``."""
        guard = GuardedEnsemble(ensemble)
        active = [m for m in ensemble.matchers
                  if not cheap_only or m.name == guard.cheap_matcher_name]
        weights = [ensemble.weights[m.name] for m in active]
        if not any(weights):
            weights = [1.0] * len(active)
        scratch = MatchScratch()
        for schema_id, candidate in enumerate(candidates, start=1):
            candidate.schema_id = schema_id
            golden = SimilarityMatrix.combine(
                [m.match(query, candidate) for m in active], weights)
            profile = SchemaMatchProfile.build(candidate)
            fast = guard.match(query, candidate, profile=profile,
                               scratch=scratch, cheap_only=cheap_only)
            assert fast.element_scores() == golden.max_per_column()
            combined = fast.combined()
            assert combined.row_labels == golden.row_labels
            assert combined.col_labels == golden.col_labels
            assert np.array_equal(combined.values, golden.values)
            assert list(combined.nonzero_pairs(0.25)) == \
                list(golden.nonzero_pairs(0.25))

    @settings(max_examples=40, deadline=None)
    @given(candidate=schemas(), query=queries())
    def test_every_matcher_column_path_equals_cell_loop(self, candidate,
                                                        query):
        candidate.schema_id = 1
        profile = SchemaMatchProfile.build(candidate)
        for matcher in (NameMatcher(), NameMatcher(expand=False),
                        ContextMatcher(), ExactMatcher(),
                        ExactMatcher(expand=False), SynonymMatcher(),
                        DataTypeMatcher(), StructureMatcher(),
                        StructureMatcher(threshold=0.0)):
            reference = matcher.match(query, candidate)
            for scratch in (None, MatchScratch()):
                fast = matcher.match(query, candidate, profile=profile,
                                     scratch=scratch)
                assert fast.row_labels == reference.row_labels
                assert fast.col_labels == reference.col_labels
                assert np.array_equal(fast.values, reference.values)


# -- count gates -------------------------------------------------------------

@pytest.fixture(scope="module")
def corpus_repo(tmp_path_factory):
    db = str(tmp_path_factory.mktemp("phase2") / "repo.db")
    repo = SchemaRepository(db)
    for generated in CorpusGenerator(seed=7).stream(150):
        repo.add_schema(generated.schema)
    yield repo
    repo.close()


QUERY = {"keywords": ["patient", "name", "height", "site"],
         "fragment": "CREATE TABLE patient (id INT, name VARCHAR(80), "
                     "height DECIMAL(5,2), gender CHAR(1));"}


class TestCountGates:
    def test_matrices_only_for_materialised_results(self, corpus_repo,
                                                    monkeypatch):
        engine = corpus_repo.engine()
        built = []
        real_init = SimilarityMatrix.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(SimilarityMatrix, "__init__", counting_init)
        try:
            page = engine.search(top_n=5, **QUERY)
            candidates = engine.last_profile.phase_items[
                "schema_matching"][0]
        finally:
            engine.close()
        assert len(page) == 5 and candidates > len(page)
        assert len(built) == len(page)

    def test_jaccard_once_per_distinct_context_pair(self, corpus_repo,
                                                    monkeypatch):
        engine = corpus_repo.engine()
        pairs = []
        real_jaccard = context_mod._jaccard

        def counting_jaccard(a, b):
            pairs.append((frozenset(a), frozenset(b)))
            return real_jaccard(a, b)

        monkeypatch.setattr(context_mod, "_jaccard", counting_jaccard)
        try:
            engine.search(top_n=5, **QUERY)
        finally:
            engine.close()
        assert pairs
        assert len(pairs) == len(set(pairs))


# -- dotted entity names -----------------------------------------------------

DOTTED_DDL = ('CREATE TABLE "order.items" '
              '(id INT, qty INT, item_name VARCHAR(20));')
PLAIN_DDL = "CREATE TABLE items (id INT, qty INT, item_name VARCHAR(20));"
DOTTED_XSD = """<?xml version="1.0"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="order.items">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="qty" type="xs:int"/>
        <xs:element name="item_name" type="xs:string"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>"""
KEYWORDS = ["item", "qty"]


@pytest.fixture(scope="module")
def dotted_db(tmp_path_factory):
    db = str(tmp_path_factory.mktemp("dotted") / "repo.db")
    repo = SchemaRepository(db)
    repo.import_ddl(DOTTED_DDL, name="dotted_orders")
    repo.import_ddl(PLAIN_DDL, name="plain_items")
    repo.import_xsd(DOTTED_XSD, name="dotted_xsd")
    for generated in CorpusGenerator(seed=3).stream(20):
        repo.add_schema(generated.schema)
    repo.close()
    return db


def _names(page) -> set[str]:
    return {result.name for result in page}


class TestDottedEntityNames:
    def test_memory_segmented_and_sharded_pages(self, dotted_db, tmp_path):
        pages = []
        repo = SchemaRepository(dotted_db)
        try:
            for config in (SchemrConfig(),
                           SchemrConfig(segment_dir=str(tmp_path / "flat"))):
                engine = repo.engine(config=config)
                try:
                    pages.append(engine.search(keywords=KEYWORDS))
                finally:
                    engine.close()
                repo.close()
                repo = SchemaRepository(dotted_db)
            sharded = ShardedEngine(repo, config=SchemrConfig(
                segment_dir=str(tmp_path / "sharded"), shards=2))
            try:
                pages.append(sharded.search(keywords=KEYWORDS))
            finally:
                sharded.close()
        finally:
            repo.close()
        memory, segmented, sharded_page = pages
        assert {"dotted_orders", "plain_items", "dotted_xsd"} <= \
            _names(memory)
        assert segmented == memory
        assert sharded_page == memory
        dotted = next(r for r in memory if r.name == "dotted_orders")
        assert dotted.best_anchor == "order.items"
        assert "order.items.qty" in dotted.element_scores

    def test_dotted_xsd_entity_is_one_element(self):
        schema = parse_xsd(DOTTED_XSD, schema_name="x")
        profile = SchemaMatchProfile.build(schema)
        assert profile.entity_of["order.items.qty"] == "order.items"

    def test_tightness_reads_entities_not_paths(self):
        schema = parse_ddl(DOTTED_DDL, schema_name="d")
        scores = {"order.items.qty": 0.9, "order.items.item_name": 0.8}
        scorer = TightnessScorer()
        cold = scorer.score(schema, scores)
        profile = SchemaMatchProfile.build(schema)
        fast = scorer.score(schema, scores,
                            neighborhoods=profile.neighborhood_index(),
                            entity_of=profile.entity_of)
        assert cold == fast
        assert cold.best_anchor == "order.items"
        with pytest.raises(MatchError, match="does not exist"):
            scorer.score(schema, {"order.qty": 0.9})


class TestPathCollisionsRejected:
    def test_attribute_paths(self):
        with pytest.raises(SchemaError, match="two elements"):
            Schema("s", entities={
                "a.b": Entity("a.b", [Attribute("c")]),
                "a": Entity("a", [Attribute("b.c")])})

    def test_entity_against_attribute(self):
        schema = Schema("s")
        schema.add_entity(Entity("a", [Attribute("b")]))
        with pytest.raises(SchemaError, match="two elements"):
            schema.add_entity(Entity("a.b", [Attribute("x")]))
        assert list(schema.entities) == ["a"]  # the rejected one is gone

    def test_ddl_import(self):
        with pytest.raises(SchemaError, match="two elements"):
            parse_ddl('CREATE TABLE "a.b" (c INT); '
                      'CREATE TABLE a ("b.c" INT);', schema_name="s")

    def test_xsd_import(self):
        xsd = """<?xml version="1.0"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="a.b"><xs:complexType><xs:sequence>
    <xs:element name="c" type="xs:int"/>
  </xs:sequence></xs:complexType></xs:element>
  <xs:element name="a"><xs:complexType><xs:sequence>
    <xs:element name="b.c" type="xs:int"/>
  </xs:sequence></xs:complexType></xs:element>
</xs:schema>"""
        with pytest.raises(SchemaError, match="two elements"):
            parse_xsd(xsd, schema_name="s")

    def test_dotted_names_without_collision_are_fine(self):
        schema = Schema("s")
        schema.add_entity(Entity("order.items", [Attribute("qty")]))
        schema.add_entity(Entity("items", [Attribute("order.qty")]))
        assert len(schema.element_entities()) == schema.element_count

    @pytest.mark.parametrize("order", ["entity_first", "dotted_first"])
    def test_add_entity_probes_both_orders(self, order):
        plain = Entity("a", [Attribute("b.c")])
        dotted = Entity("a.b", [Attribute("c")])
        first, second = ((plain, dotted) if order == "entity_first"
                         else (dotted, plain))
        schema = Schema("s")
        schema.add_entity(first)
        with pytest.raises(SchemaError, match="'a.b.c'"):
            schema.add_entity(second)

    def test_dotted_schema_checks_paths_once(self, monkeypatch):
        """Decoding or parsing a dotted schema walks its paths at most
        once, not once per entity."""
        ddl = " ".join(f'CREATE TABLE "part.t{i}" (id INT, qty INT);'
                       for i in range(300))
        parsed = parse_ddl(ddl, schema_name="wide")
        data = parsed.to_dict()
        calls = []
        walk = Schema.element_entities
        monkeypatch.setattr(
            Schema, "element_entities",
            lambda self: calls.append(1) or walk(self))
        assert parse_ddl(ddl, schema_name="wide") == parsed
        assert len(calls) == 0
        assert Schema.from_dict(data) == parsed
        assert len(calls) == 1
