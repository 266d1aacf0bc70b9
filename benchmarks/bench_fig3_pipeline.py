"""F3 — Figure 3: schema search algorithm data flow.

Prints the per-phase data-flow breakdown (items in/out and latency for
query parse -> candidate extraction -> schema matching ->
tightness-of-fit) and benchmarks each phase in isolation.
"""

from repro.index.searcher import IndexSearcher
from repro.matching.ensemble import MatcherEnsemble
from repro.parsers.query_parser import parse_query
from repro.scoring.tightness import TightnessScorer

from benchmarks.helpers import (
    PAPER_FRAGMENT,
    PAPER_KEYWORDS,
    corpus_repository,
    report,
)

CORPUS_SIZE = 2000


def test_fig3_report(benchmark):
    # Keep report generation alive under --benchmark-only.
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    repo, _corpus = corpus_repository(CORPUS_SIZE)
    engine = repo.engine()
    engine.search(keywords=PAPER_KEYWORDS, fragment=PAPER_FRAGMENT)
    profile = engine.last_profile
    assert profile is not None
    lines = [
        "Figure 3: schema search algorithm data flow",
        f"(corpus: {repo.schema_count} schemas, candidate pool: "
        f"{engine.config.candidate_pool})",
        "",
        profile.summary(),
    ]
    report("fig3_pipeline", "\n".join(lines))
    assert list(profile.phase_seconds) == [
        "query_parse", "candidate_extraction", "schema_matching",
        "tightness_of_fit"]


def test_fig3_phase1_candidates_benchmark(benchmark):
    repo, _corpus = corpus_repository(CORPUS_SIZE)
    searcher = IndexSearcher(repo.indexer().index)
    query = parse_query(PAPER_KEYWORDS, fragment=PAPER_FRAGMENT)
    flattened = query.flatten()
    hits = benchmark(searcher.search, flattened, 50)
    assert hits


def test_fig3_phase2_matching_benchmark(benchmark):
    repo, _corpus = corpus_repository(CORPUS_SIZE)
    searcher = IndexSearcher(repo.indexer().index)
    query = parse_query(PAPER_KEYWORDS, fragment=PAPER_FRAGMENT)
    candidate = repo.get_schema(
        searcher.search(query.flatten(), top_n=1)[0].doc_id)
    ensemble = MatcherEnsemble.default()
    result = benchmark(ensemble.match, query, candidate)
    assert result.combined.values.max() > 0


def test_fig3_phase3_tightness_benchmark(benchmark):
    repo, _corpus = corpus_repository(CORPUS_SIZE)
    searcher = IndexSearcher(repo.indexer().index)
    query = parse_query(PAPER_KEYWORDS, fragment=PAPER_FRAGMENT)
    candidate = repo.get_schema(
        searcher.search(query.flatten(), top_n=1)[0].doc_id)
    element_scores = MatcherEnsemble.default().match(
        query, candidate).combined.max_per_column()
    scorer = TightnessScorer()
    result = benchmark(scorer.score, candidate, element_scores)
    assert result.score >= 0
