"""Unit/integration tests for the three-phase SchemrEngine."""

import pytest

from repro.core.config import SchemrConfig
from repro.core.engine import DictSchemaSource, Phase1Stats, SchemrEngine
from repro.core.pipeline import ALL_PHASES
from repro.core.results import SearchResult
from repro.errors import CircuitOpenError, DeadlineExceeded, QueryError
from repro.index.documents import document_from_schema
from repro.index.inverted import InvertedIndex
from repro.index.searcher import IndexHit
from repro.matching.ensemble import MatcherEnsemble
from repro.model.query import QueryGraph
from repro.resilience.deadline import Deadline
from repro.scoring.tightness import PenaltyPolicy

from tests.conftest import (
    build_clinic_schema,
    build_conservation_schema,
    build_hr_schema,
)


@pytest.fixture
def engine() -> SchemrEngine:
    schemas = {}
    index = InvertedIndex()
    for i, builder in enumerate([build_clinic_schema, build_hr_schema,
                                 build_conservation_schema], start=1):
        schema = builder()
        schema.schema_id = i
        schemas[i] = schema
        index.add(document_from_schema(schema))
    return SchemrEngine(index=index, source=DictSchemaSource(schemas))


class TestSearch:
    def test_paper_query_ranks_clinic_first(self, engine, paper_keywords):
        results = engine.search(keywords=paper_keywords)
        assert results[0].name == "clinic_emr"
        assert results[0].schema_id == 1

    def test_result_row_fields(self, engine, paper_keywords):
        result = engine.search(keywords=paper_keywords)[0]
        assert result.entity_count == 3
        assert result.attribute_count == 12
        assert result.match_count > 0
        assert result.description == "health clinic records"
        assert result.coarse_score > 0
        assert result.best_anchor is not None

    def test_scores_descend(self, engine):
        results = engine.search(keywords="name gender salary species")
        scores = [r.score for r in results]
        assert scores == sorted(scores, reverse=True)

    def test_top_n_respected(self, engine):
        assert len(engine.search(keywords="name", top_n=2)) <= 2

    def test_bad_top_n_rejected(self, engine):
        with pytest.raises(QueryError):
            engine.search(keywords="name", top_n=0)

    def test_empty_query_rejected(self, engine):
        with pytest.raises(QueryError):
            engine.search()

    def test_fragment_query(self, engine):
        ddl = "CREATE TABLE patient (height DECIMAL, gender CHAR(1));"
        results = engine.search(fragment=ddl)
        assert results[0].name == "clinic_emr"

    def test_keyword_plus_fragment(self, engine):
        ddl = "CREATE TABLE patient (height DECIMAL);"
        results = engine.search(keywords="diagnosis", fragment=ddl)
        assert results[0].name == "clinic_emr"

    def test_search_graph_prebuilt(self, engine, paper_keywords):
        query = QueryGraph.build(keywords=paper_keywords)
        results = engine.search_graph(query)
        assert results[0].name == "clinic_emr"

    def test_search_graph_empty_rejected(self, engine):
        with pytest.raises(QueryError):
            engine.search_graph(QueryGraph())

    def test_element_matches_exposed(self, engine, paper_keywords):
        result = engine.search(keywords=paper_keywords)[0]
        pairs = {(m.query_label, m.element_path)
                 for m in result.element_matches}
        assert ("kw:height", "patient.height") in pairs

    def test_element_matches_built_for_the_page_only(self, engine):
        query = "name gender salary species"
        full = engine.search(keywords=query)
        assert len(full) > 1 and all(r.element_matches for r in full)
        for offset, expected in enumerate(full):
            (page,) = engine.search(keywords=query, top_n=1, offset=offset)
            assert page.element_matches == expected.element_matches
        # Ranking never reads the drill-in: score() leaves it to the page.
        graph = QueryGraph.build(keywords=query.split())
        executor = engine._executor
        pool = engine.searcher.search(graph.flatten(), top_n=10)
        matched = executor.match(graph, pool, Deadline.unlimited(), False)
        assert all(not r.element_matches for r in executor.score(matched))

    def test_match_and_score_ships_every_drill_in(self, engine):
        query = QueryGraph.build(keywords=["name", "gender", "species"])
        pool = engine.searcher.search(query.flatten(), top_n=10)
        results = engine.match_and_score(query, pool)
        page = {r.schema_id: r.element_matches
                for r in engine.search_graph(query)}
        assert [r.schema_id for r in results] == [h.doc_id for h in pool]
        assert {r.schema_id: r.element_matches for r in results} == page

    def test_top_matches_sorted(self, engine, paper_keywords):
        result = engine.search(keywords=paper_keywords)[0]
        top = result.top_matches(3)
        assert len(top) <= 3
        scores = [m.score for m in top]
        assert scores == sorted(scores, reverse=True)


class TestTrace:
    def test_all_phases_recorded(self, engine, paper_keywords):
        engine.search(keywords=paper_keywords)
        profile = engine.last_profile
        assert profile is not None
        assert list(profile.phase_seconds) == list(ALL_PHASES)
        assert profile.total_seconds == pytest.approx(
            sum(profile.phase_seconds.values()))

    def test_phase_counts_flow(self, engine, paper_keywords):
        engine.search(keywords=paper_keywords)
        items = engine.last_profile.phase_items
        candidates_in, candidates_out = items["candidate_extraction"]
        assert candidates_in == 4  # four keywords
        assert items["schema_matching"][0] == candidates_out

    def test_search_graph_has_no_parse_phase(self, engine, paper_keywords):
        engine.search_graph(QueryGraph.build(keywords=paper_keywords))
        assert "query_parse" not in engine.last_profile.phase_seconds

    def test_trace_summary_renders(self, engine, paper_keywords):
        engine.search(keywords=paper_keywords)
        summary = engine.last_profile.summary()
        assert "candidate_extraction" in summary
        assert "total" in summary


class TestConfiguration:
    def test_candidate_pool_limits_matching(self, paper_keywords):
        schemas = {}
        index = InvertedIndex()
        for i in range(1, 6):
            schema = build_clinic_schema(name=f"clinic_{i}")
            schema.schema_id = i
            schemas[i] = schema
            index.add(document_from_schema(schema))
        engine = SchemrEngine(index=index, source=DictSchemaSource(schemas),
                              config=SchemrConfig(candidate_pool=2))
        engine.search(keywords=paper_keywords)
        assert engine.last_profile.phase_items["schema_matching"][0] == 2

    def test_invalid_candidate_pool(self):
        with pytest.raises(QueryError):
            SchemrConfig(candidate_pool=0)

    def test_tightness_ablation_drops_anchor(self, paper_keywords):
        schema = build_clinic_schema()
        schema.schema_id = 1
        index = InvertedIndex()
        index.add(document_from_schema(schema))
        engine = SchemrEngine(
            index=index, source=DictSchemaSource({1: schema}),
            config=SchemrConfig(use_tightness=False))
        result = engine.search(keywords=paper_keywords)[0]
        assert result.best_anchor is None
        assert result.score > 0

    def test_custom_ensemble_used(self, paper_keywords):
        schema = build_clinic_schema()
        schema.schema_id = 1
        index = InvertedIndex()
        index.add(document_from_schema(schema))
        from repro.matching.name import NameMatcher
        ensemble = MatcherEnsemble(matchers=[NameMatcher()])
        engine = SchemrEngine(index=index,
                              source=DictSchemaSource({1: schema}),
                              ensemble=ensemble)
        assert engine.ensemble.matcher_names == ("name",)
        assert engine.search(keywords=paper_keywords)

    def test_custom_penalties_flow_through(self, paper_keywords):
        schema = build_clinic_schema()
        schema.schema_id = 1
        index = InvertedIndex()
        index.add(document_from_schema(schema))
        config = SchemrConfig(penalties=PenaltyPolicy(
            neighborhood_penalty=0.0, unrelated_penalty=0.0))
        engine = SchemrEngine(index=index,
                              source=DictSchemaSource({1: schema}),
                              config=config)
        no_penalty_score = engine.search(keywords=paper_keywords)[0].score
        default_engine = SchemrEngine(index=index,
                                      source=DictSchemaSource({1: schema}))
        default_score = default_engine.search(
            keywords=paper_keywords)[0].score
        assert no_penalty_score >= default_score


class TestPaging:
    """Offset/top_n edge cases, sequential and parallel.

    Parallel dispatch must not disturb the ranking, so every case runs
    with ``match_workers`` of 1 and 4 and expects identical pages.
    """

    POOL = 4  # candidate_pool smaller than the corpus below

    @staticmethod
    def _engine(match_workers: int) -> SchemrEngine:
        schemas = {}
        index = InvertedIndex()
        builders = [build_clinic_schema, build_hr_schema,
                    build_conservation_schema]
        for i in range(1, 7):
            schema = builders[(i - 1) % len(builders)](name=f"schema_{i}")
            schema.schema_id = i
            schemas[i] = schema
            index.add(document_from_schema(schema))
        config = SchemrConfig(candidate_pool=TestPaging.POOL,
                              match_workers=match_workers)
        return SchemrEngine(index=index, source=DictSchemaSource(schemas),
                            config=config)

    QUERY = "name gender salary species height"

    @pytest.mark.parametrize("workers", [1, 4])
    def test_offset_at_pool_returns_empty(self, workers):
        with self._engine(workers) as engine:
            assert engine.search(keywords=self.QUERY,
                                 offset=self.POOL) == []

    @pytest.mark.parametrize("workers", [1, 4])
    def test_offset_beyond_pool_returns_empty(self, workers):
        with self._engine(workers) as engine:
            assert engine.search(keywords=self.QUERY,
                                 offset=self.POOL + 10) == []

    @pytest.mark.parametrize("workers", [1, 4])
    def test_page_straddling_pool_boundary_returns_tail(self, workers):
        with self._engine(workers) as engine:
            full = engine.search(keywords=self.QUERY, top_n=self.POOL)
            assert len(full) == self.POOL
            # offset + top_n overshoots the pool: just the tail comes back.
            tail = engine.search(keywords=self.QUERY,
                                 top_n=3, offset=self.POOL - 1)
            assert [r.schema_id for r in tail] == [full[-1].schema_id]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_pages_tile_the_ranking(self, workers):
        with self._engine(workers) as engine:
            full = engine.search(keywords=self.QUERY, top_n=self.POOL)
            paged = []
            for offset in range(0, self.POOL, 2):
                paged.extend(engine.search(keywords=self.QUERY,
                                           top_n=2, offset=offset))
            assert [r.schema_id for r in paged] == \
                [r.schema_id for r in full]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_negative_offset_rejected(self, workers):
        with self._engine(workers) as engine:
            with pytest.raises(QueryError):
                engine.search(keywords=self.QUERY, offset=-1)

    def test_parallel_ranking_matches_sequential(self):
        with self._engine(1) as seq, self._engine(4) as par:
            seq_results = seq.search(keywords=self.QUERY, top_n=self.POOL)
            par_results = par.search(keywords=self.QUERY, top_n=self.POOL)
            assert [(r.schema_id, r.score) for r in seq_results] == \
                [(r.schema_id, r.score) for r in par_results]

    def test_invalid_match_workers_rejected(self):
        with pytest.raises(QueryError):
            SchemrConfig(match_workers=0)

    def test_close_is_idempotent(self):
        engine = self._engine(4)
        engine.search(keywords=self.QUERY)
        engine.close()
        engine.close()


class TestDictSchemaSource:
    def test_lookup(self, clinic_schema):
        clinic_schema.schema_id = 1
        source = DictSchemaSource({1: clinic_schema})
        assert source.get_schema(1) is clinic_schema

    def test_missing_raises(self):
        with pytest.raises(QueryError):
            DictSchemaSource({}).get_schema(9)


class _FakeExecutor:
    """The whole port: three methods, no index, no pool."""

    def __init__(self, match_error: Exception | None = None) -> None:
        self.match_error = match_error
        self.calls: list[tuple] = []

    def candidates(self, flattened, pool_n, deadline):
        self.calls.append(("candidates", tuple(flattened), pool_n))
        hits = [IndexHit(1, 0.9, 2, "first"), IndexHit(2, 0.5, 1, "second")]
        return hits, Phase1Stats(strategy="fake", docs_scored=2)

    def match(self, query, pool, deadline, cheap_only):
        self.calls.append(("match", len(pool), cheap_only))
        if self.match_error is not None:
            raise self.match_error
        return list(pool)

    def score(self, matched):
        # Inverts the coarse order, so the page proves the engine sorts.
        return [SearchResult(schema_id=hit.doc_id, name=hit.title,
                             score=1.0 - hit.score, match_count=1,
                             entity_count=1, attribute_count=1,
                             coarse_score=hit.score)
                for hit in matched]


class TestExecutorPort:
    def test_lifecycle_runs_on_a_fake_executor(self):
        executor = _FakeExecutor()
        engine = SchemrEngine(executor=executor,
                              config=SchemrConfig(candidate_pool=7))
        page = engine.search(keywords="patient height", top_n=1)
        assert [r.schema_id for r in page] == [2]
        assert [r.schema_id for r in engine.search(
            keywords="patient height", top_n=1, offset=1)] == [1]
        assert executor.calls[:2] == [
            ("candidates", ("patient", "height"), 7), ("match", 2, False)]
        profile = engine.last_profile
        assert list(profile.phase_seconds) == list(ALL_PHASES)
        assert profile.strategy == "fake"
        assert (profile.candidate_count, profile.matched_count,
                profile.result_count) == (2, 2, 1)
        assert profile.degradation == "none"
        assert engine.breakers == {}
        engine.close()

    @pytest.mark.parametrize("error", [
        DeadlineExceeded("budget died mid-pool"),
        CircuitOpenError("source down", breaker="schema_source"),
    ])
    def test_executor_failures_degrade_to_the_phase1_page(self, error):
        engine = SchemrEngine(executor=_FakeExecutor(match_error=error))
        page = engine.search(keywords="patient")
        assert [(r.schema_id, r.score) for r in page] == [(1, 0.9), (2, 0.5)]
        profile = engine.last_profile
        assert profile.degradation == "phase1_only"
        assert profile.deadline_expired is isinstance(error, DeadlineExceeded)
        assert "tightness_of_fit" not in profile.phase_seconds

    def test_validation_precedes_the_executor(self):
        executor = _FakeExecutor()
        engine = SchemrEngine(executor=executor)
        with pytest.raises(QueryError):
            engine.search(keywords="patient", top_n=0)
        with pytest.raises(QueryError):
            engine.search(keywords="patient", offset=-1)
        assert executor.calls == []
