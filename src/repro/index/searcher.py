"""Top-n retrieval over the inverted index (candidate extraction).

The searcher is term-at-a-time: it walks the postings of each query
term, accumulates per-document score contributions, then selects the top
n with a heap.  This is the "fast and scalable filter for relevant
candidate schemas" of phase one.

Three strategies share one scoring definition and produce *identical*
rankings and scores:

* ``naive`` — the original reference loop: per-posting view objects,
  dict-of-float accumulators, the exception-raising norm accessor.
  Kept as the golden baseline for equivalence tests and benchmarks.
* ``packed`` — the same exhaustive accumulation order, but iterating
  the packed doc-id/frequency columns of
  :class:`~repro.index.postings.PostingsList` and reading norms from a
  plain dict snapshot.
* ``pruned`` (default) — MaxScore-style dynamic pruning on top of the
  packed columns: query terms are processed in descending upper-bound
  (idf-driven max-impact) order, the current top-k threshold is
  maintained, and once no unseen document can possibly enter the top k
  the remaining postings lists are only probed for documents already in
  the accumulator.  Accumulators are dense arrays indexed by doc id.

Byte-identical scores across strategies are non-trivial because float
addition is order-sensitive.  The pruned path therefore keeps one
contribution slot per (query term group, document) and sums the slots
in ascending group order at the end — exactly the addition sequence the
exhaustive loop performs — while pruning decisions use a separate
running total with a conservative safety margin.

An optional :class:`~repro.index.fuzzy.TrigramIndex` widens recall for
query terms absent from the term dictionary (see
:mod:`repro.index.fuzzy`); each expansion's contribution is discounted
by its trigram similarity.

An optional :class:`~repro.index.cache.QueryCache` memoizes whole
rankings keyed on (analyzed terms, top_n, index generation), making
repeated and paged queries near-free and self-invalidating whenever the
indexer refreshes.
"""

from __future__ import annotations

import heapq
import threading
from array import array
from bisect import bisect_left
from dataclasses import dataclass

from repro.errors import QueryError
from repro.index.cache import QueryCache
from repro.index.fuzzy import TrigramIndex, expand_query_terms
from repro.index.inverted import InvertedIndex
from repro.index.scoring import TfIdfScorer
from repro.text.analysis import SCHEMA_ANALYZER, Analyzer

#: Pruning skips an unseen document only when its upper bound is below
#: this fraction of the current threshold.  The margin absorbs the
#: (bounded, ~1e-13 relative) drift between the running pruning total
#: and the canonical summation order; score gaps in real corpora are
#: many orders of magnitude wider, so the lost pruning power is nil.
_PRUNE_SAFETY = 1.0 - 1e-9

#: Dense accumulators are used while max_doc_id + 1 stays within this
#: factor of the document count (plus slack for tiny corpora); beyond
#: that the doc-id space is too sparse and the packed exhaustive path
#: (dict accumulators) is used instead.
_DENSE_FACTOR = 4
_DENSE_SLACK = 1024

_STRATEGIES = ("naive", "packed", "pruned")

#: Memoized ``f ** 0.5`` for small term frequencies (the common case by
#: far).  Indexing the tuple returns the exact float the power operator
#: would, so scores stay byte-identical to the reference loop.
_SQRT = tuple(f ** 0.5 for f in range(256))
_SQRT_LIMIT = len(_SQRT)


@dataclass(frozen=True, slots=True)
class IndexHit:
    """One candidate: document id, coarse score, matched-term count."""

    doc_id: int
    score: float
    matched_terms: int
    title: str = ""


@dataclass(frozen=True, slots=True)
class SearchStats:
    """How the last query was answered (telemetry input).

    ``strategy`` is the path that actually executed — a ``pruned``
    searcher falling back to the packed loop on a sparse doc-id space
    reports ``packed``.  ``docs_scored`` counts accumulator entries
    (documents that received at least one term contribution);
    ``pruned_early`` is whether MaxScore reached AND-mode and stopped
    admitting new documents.  On a cache hit nothing was scored.
    """

    strategy: str
    term_count: int
    docs_scored: int = 0
    pruned_early: bool = False
    cache_hit: bool = False


#: One query term group: the analyzed term plus weighted variants
#: (itself at weight 1, fuzzy expansions at their similarity).
_TermGroup = list[tuple[str, float]]


@dataclass(frozen=True, slots=True)
class PreparedQuery:
    """An analyzed query with its term groups and idf values pinned.

    Produced by :meth:`IndexSearcher.prepare` and consumed by
    :meth:`IndexSearcher.search_prepared`.  The point of pinning is
    distributed retrieval: a scatter-gather front prepares the query
    once against the *global* corpus statistics (document counts,
    per-term document frequencies, fuzzy expansions over the global
    vocabulary) and broadcasts the prepared form to per-shard workers,
    whose local statistics would otherwise disagree with the
    single-index scores.  Every field is a hashable tuple so a prepared
    query can key a :class:`~repro.index.cache.QueryCache` directly.
    """

    #: The analyzed query terms (one per term group).
    terms: tuple[str, ...]
    #: Per-term variant groups: ``((term, weight), ...)`` per group —
    #: the term itself at weight 1.0 plus any fuzzy expansions.
    groups: tuple[tuple[tuple[str, float], ...], ...]
    #: ``(term, idf)`` for every distinct variant term, sorted by term.
    idf: tuple[tuple[str, float], ...]

    def idf_map(self) -> dict[str, float]:
        """The pinned idf values as a lookup dict."""
        return dict(self.idf)


class IndexSearcher:
    """Executes analyzed keyword queries against an :class:`InvertedIndex`."""

    def __init__(self, index: InvertedIndex,
                 analyzer: Analyzer = SCHEMA_ANALYZER,
                 use_coordination: bool = True,
                 fuzzy: TrigramIndex | None = None,
                 strategy: str = "pruned",
                 query_cache: QueryCache | None = None) -> None:
        if strategy not in _STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; expected one of "
                f"{_STRATEGIES}")
        self._index = index
        self._analyzer = analyzer
        self._scorer = TfIdfScorer(index, use_coordination=use_coordination)
        self._fuzzy = fuzzy
        self._fuzzy_generation = index.generation
        self._strategy = strategy
        self._cache = query_cache
        self._cache_generation = index.generation
        # Dense norm column for the pruned hot loop, rebuilt lazily
        # whenever the index generation moves: (generation, array).
        self._dense_norms: tuple[int, array] | None = None
        self._thread_stats = threading.local()

    @property
    def last_stats(self) -> SearchStats | None:
        """How the *calling thread's* most recent query was answered.

        Per-thread (like ``engine.thread_profile``) so concurrent
        serving threads never read each other's cache-hit/pruning
        flags."""
        return getattr(self._thread_stats, "stats", None)

    @last_stats.setter
    def last_stats(self, stats: SearchStats) -> None:
        self._thread_stats.stats = stats

    @property
    def index(self) -> InvertedIndex:
        return self._index

    @property
    def scorer(self) -> TfIdfScorer:
        return self._scorer

    @property
    def fuzzy(self) -> TrigramIndex | None:
        return self._fuzzy

    @property
    def strategy(self) -> str:
        return self._strategy

    @property
    def query_cache(self) -> QueryCache | None:
        return self._cache

    def sync_fuzzy(self) -> None:
        """Re-sync the fuzzy vocabulary with the index generation.

        The trigram index is built from the vocabulary at construction
        time; after an indexer refresh/rebuild the index generation
        moves and new schemas' terms would be invisible to fuzzy
        expansion.  Comparing generations makes the check O(1) per
        query and the vocabulary walk happens only when something
        actually changed.
        """
        if self._fuzzy is None:
            return
        generation = self._index.generation
        if generation != self._fuzzy_generation:
            self._fuzzy.update_from(self._index.vocabulary())
            self._fuzzy_generation = generation

    def analyze_query(self, raw_terms: list[str]) -> list[str]:
        """Run the flattened query words through the analyzer chain.

        With fuzzy expansion enabled, known abbreviations are expanded
        first so ``ht`` reaches the index as ``height``.
        """
        if self._fuzzy is not None:
            raw_terms = expand_query_terms(raw_terms)
        return self._analyzer.analyze_all(raw_terms)

    def search(self, raw_terms: list[str], top_n: int = 10) -> list[IndexHit]:
        """Return the ``top_n`` highest-scoring candidates.

        ``raw_terms`` is the flattened query graph (keywords + fragment
        element names); analysis happens here so callers hand over raw
        user words.  Raises :class:`QueryError` when nothing survives
        analysis (an all-stopword query is unanswerable).
        """
        if top_n <= 0:
            raise QueryError(f"top_n must be positive, got {top_n}")
        terms = self.analyze_query(raw_terms)
        if not terms:
            raise QueryError(
                "query is empty after analysis; supply at least one "
                "non-stopword term")
        cache = self._cache
        if cache is None:
            return self._search_analyzed(terms, top_n)
        generation = self._index.generation
        if generation != self._cache_generation:
            cache.evict_stale(generation)
            self._cache_generation = generation
        key = QueryCache.make_key(terms, top_n, generation)
        hits = cache.get(key)
        if hits is None:
            hits = self._search_analyzed(terms, top_n)
            cache.put(key, hits)
        else:
            self.last_stats = SearchStats(
                strategy=self._strategy, term_count=len(terms),
                cache_hit=True)
        return hits

    def prepare(self, raw_terms: list[str]) -> PreparedQuery:
        """Analyze a query and pin its term groups and idf values.

        The returned :class:`PreparedQuery` reproduces this searcher's
        view of the corpus statistics; running it through
        :meth:`search_prepared` on *this* searcher returns exactly what
        :meth:`search` would, and running it on a searcher over any
        subset of the corpus scores that subset with the global
        statistics — the building block for exact sharded retrieval.
        Raises :class:`QueryError` when nothing survives analysis.
        """
        terms = self.analyze_query(raw_terms)
        if not terms:
            raise QueryError(
                "query is empty after analysis; supply at least one "
                "non-stopword term")
        with self._index.lock:
            groups = self._term_groups(terms)
            idf: dict[str, float] = {}
            for group in groups:
                for term, _weight in group:
                    if term not in idf:
                        idf[term] = self._scorer.idf(term)
        return PreparedQuery(
            terms=tuple(terms),
            groups=tuple(tuple(group) for group in groups),
            idf=tuple(sorted(idf.items())))

    def search_prepared(self, prepared: PreparedQuery,
                        top_n: int = 10) -> list[IndexHit]:
        """Return the ``top_n`` candidates for a pinned query.

        No analysis, fuzzy expansion, or idf computation happens here:
        the prepared query's groups and idf values are used verbatim,
        so the same prepared query scores identically on every index it
        runs against (documents only contribute through their local
        postings and norms, both per-document quantities).
        """
        if top_n <= 0:
            raise QueryError(f"top_n must be positive, got {top_n}")
        terms = list(prepared.terms)
        groups = [list(group) for group in prepared.groups]
        idf = prepared.idf_map()
        cache = self._cache
        if cache is None:
            return self._search_pinned(terms, groups, idf, top_n)
        generation = self._index.generation
        if generation != self._cache_generation:
            cache.evict_stale(generation)
            self._cache_generation = generation
        # Same 3-tuple shape as make_key (generation last) so
        # evict_stale sweeps prepared entries too.
        key = (prepared, top_n, generation)
        hits = cache.get(key)
        if hits is None:
            hits = self._search_pinned(terms, groups, idf, top_n)
            cache.put(key, hits)
        else:
            self.last_stats = SearchStats(
                strategy=self._strategy, term_count=len(terms),
                cache_hit=True)
        return hits

    def _search_pinned(self, terms: list[str], groups: list[_TermGroup],
                       idf: dict[str, float], top_n: int) -> list[IndexHit]:
        with self._index.lock:
            return self._dispatch(terms, groups, idf, top_n)

    def _term_groups(self, terms: list[str]) -> list[_TermGroup]:
        """Each analyzed term with its weighted variants."""
        groups: list[_TermGroup] = []
        for term in terms:
            group: _TermGroup = [(term, 1.0)]
            if (self._fuzzy is not None
                    and self._index.document_frequency(term) == 0):
                group.extend((e.term, e.similarity)
                             for e in self._fuzzy.suggest(term))
            groups.append(group)
        return groups

    def _search_analyzed(self, terms: list[str], top_n: int) -> list[IndexHit]:
        # The mutation lock makes a search atomic against a background
        # indexer refresh: readers never observe a half-applied batch.
        with self._index.lock:
            return self._dispatch(terms, self._term_groups(terms), None,
                                  top_n)

    def _dispatch(self, terms: list[str], groups: list[_TermGroup],
                  idf: dict[str, float] | None,
                  top_n: int) -> list[IndexHit]:
        """Run the configured strategy with resolved groups.

        ``idf`` is ``None`` for local queries (each term's idf comes
        from this index's statistics, exactly as before) or a pinned
        map for prepared queries.  Must be called under the index lock.
        """
        if self._strategy == "naive":
            return self._search_naive(terms, groups, idf, top_n)
        if self._strategy == "packed":
            return self._search_packed(terms, groups, idf, top_n)
        return self._search_pruned(terms, groups, idf, top_n)

    def _idf(self, term: str, idf: dict[str, float] | None) -> float:
        if idf is None:
            return self._scorer.idf(term)
        return idf.get(term, 0.0)

    # -- naive: the golden reference loop ----------------------------------

    def _search_naive(self, terms: list[str], groups: list[_TermGroup],
                      idf: dict[str, float] | None,
                      top_n: int) -> list[IndexHit]:
        # Term-at-a-time accumulation: scores[doc] = sum of per-term
        # parts; a document "matches" a query term when any variant of
        # its group hit.
        scores: dict[int, float] = {}
        matched: dict[int, int] = {}
        for group in groups:
            group_docs: set[int] = set()
            for term, weight in group:
                postings = self._index.postings(term)
                if postings is None:
                    continue
                idf_sq = self._idf(term, idf) ** 2
                for posting in postings:
                    part = (weight * (posting.frequency ** 0.5) * idf_sq
                            * self._index.norm(posting.doc_id))
                    scores[posting.doc_id] = \
                        scores.get(posting.doc_id, 0.0) + part
                    group_docs.add(posting.doc_id)
            for doc_id in group_docs:
                matched[doc_id] = matched.get(doc_id, 0) + 1
        if self._scorer.use_coordination and terms:
            total_terms = len(terms)
            for doc_id in scores:
                scores[doc_id] *= matched[doc_id] / total_terms
        self.last_stats = SearchStats(
            strategy="naive", term_count=len(terms),
            docs_scored=len(scores))
        return self._top_hits(scores.items(), matched, top_n)

    # -- packed: exhaustive over the packed columns ------------------------

    def _search_packed(self, terms: list[str], groups: list[_TermGroup],
                       idf: dict[str, float] | None,
                       top_n: int) -> list[IndexHit]:
        norms = self._index.snapshot().norms
        scores: dict[int, float] = {}
        matched: dict[int, int] = {}
        for group in groups:
            group_docs: set[int] = set()
            for term, weight in group:
                postings = self._index.postings(term)
                if postings is None:
                    continue
                idf_sq = self._idf(term, idf) ** 2
                for doc_id, freq in zip(postings.doc_ids_array(),
                                        postings.frequencies_array()):
                    part = (weight * (freq ** 0.5) * idf_sq
                            * norms[doc_id])
                    scores[doc_id] = scores.get(doc_id, 0.0) + part
                    group_docs.add(doc_id)
            for doc_id in group_docs:
                matched[doc_id] = matched.get(doc_id, 0) + 1
        if self._scorer.use_coordination and terms:
            total_terms = len(terms)
            for doc_id in scores:
                scores[doc_id] *= matched[doc_id] / total_terms
        self.last_stats = SearchStats(
            strategy="packed", term_count=len(terms),
            docs_scored=len(scores))
        return self._top_hits(scores.items(), matched, top_n)

    # -- pruned: MaxScore-style term-at-a-time -----------------------------

    def _search_pruned(self, terms: list[str], groups: list[_TermGroup],
                       idf: dict[str, float] | None,
                       top_n: int) -> list[IndexHit]:
        snapshot = self._index.snapshot()
        if snapshot.document_count == 0:
            self.last_stats = SearchStats(strategy="pruned",
                                          term_count=len(terms))
            return []
        capacity = snapshot.max_doc_id + 1
        if capacity > _DENSE_FACTOR * snapshot.document_count + _DENSE_SLACK:
            # Doc-id space too sparse for dense accumulators; the packed
            # exhaustive path is exact and still fast.
            return self._search_packed(terms, groups, idf, top_n)
        norms = self._dense_norm_column(snapshot, capacity)
        max_norm = snapshot.max_norm
        n_groups = len(groups)
        use_coordination = self._scorer.use_coordination

        # Resolve each group's variants once: (weight, idf^2, postings),
        # plus the group's score upper bound — the most any single
        # document could collect from the whole group, via the per-term
        # max-impact statistic and the corpus-wide max norm.
        resolved: list[list[tuple[float, float, object]]] = []
        group_ubs: list[float] = []
        for group in groups:
            items: list[tuple[float, float, object]] = []
            ub = 0.0
            for term, weight in group:
                postings = self._index.postings(term)
                if postings is None:
                    continue
                idf_sq = self._idf(term, idf) ** 2
                items.append((weight, idf_sq, postings))
                ub += (weight * (postings.max_frequency ** 0.5) * idf_sq
                       * max_norm)
            resolved.append(items)
            group_ubs.append(ub)

        # MaxScore ordering: highest-impact (rarest / highest idf)
        # groups first so the threshold rises before the long lists.
        order = sorted(range(n_groups),
                       key=lambda g: (-group_ubs[g], g))
        # suffix_ub[r] = best possible score from groups order[r:].
        suffix_ub = [0.0] * (n_groups + 1)
        for r in range(n_groups - 1, -1, -1):
            suffix_ub[r] = suffix_ub[r + 1] + group_ubs[order[r]]

        # Dense accumulators.  slots[g] keeps each group's contribution
        # separate so the final per-document sum can replay the
        # exhaustive addition order; running[d] is the pruning total.
        zeros = bytes(8 * capacity)
        slots = [array("d", zeros) for _ in range(n_groups)]
        running = array("d", zeros)
        matched = array("i", bytes(4 * capacity))
        touched: list[int] = []

        and_mode = False
        for rank, gi in enumerate(order):
            if not and_mode and len(touched) >= top_n:
                # Can any unseen document still reach the top k?  Its
                # best case takes every remaining group's upper bound
                # and, with coordination, at most the remaining share
                # of the query terms.
                new_doc_ub = suffix_ub[rank]
                if use_coordination:
                    new_doc_ub *= (n_groups - rank) / n_groups
                if use_coordination:
                    lower_bounds = (running[d] * matched[d] / n_groups
                                    for d in touched)
                else:
                    lower_bounds = (running[d] for d in touched)
                threshold = heapq.nlargest(top_n, lower_bounds)[-1]
                if new_doc_ub < threshold * _PRUNE_SAFETY:
                    and_mode = True
            slot = slots[gi]
            if not and_mode:
                for weight, idf_sq, postings in resolved[gi]:
                    ids = postings.doc_ids_array()
                    freqs = postings.frequencies_array()
                    # weight == 1.0 (every non-fuzzy variant) multiplies
                    # exactly to the same float, so the reference
                    # expression's leading factor can be elided.
                    unit_weight = weight == 1.0
                    for doc_id, freq in zip(ids, freqs):
                        sqrt_tf = (_SQRT[freq] if freq < _SQRT_LIMIT
                                   else freq ** 0.5)
                        if unit_weight:
                            part = sqrt_tf * idf_sq * norms[doc_id]
                        else:
                            part = (weight * sqrt_tf * idf_sq
                                    * norms[doc_id])
                        prev = slot[doc_id]
                        slot[doc_id] = prev + part
                        running[doc_id] += part
                        if prev == 0.0:
                            if matched[doc_id] == 0:
                                touched.append(doc_id)
                            matched[doc_id] += 1
            else:
                # No new accumulator entries from here on, so the
                # pruning total (`running`) is dead weight — only the
                # per-group slots and matched counts still matter.
                for weight, idf_sq, postings in resolved[gi]:
                    ids = postings.doc_ids_array()
                    freqs = postings.frequencies_array()
                    unit_weight = weight == 1.0
                    if len(touched) <= len(ids):
                        # Probe the accumulator docs against the sorted
                        # doc-id column instead of walking the list.
                        n_ids = len(ids)
                        for doc_id in touched:
                            i = bisect_left(ids, doc_id)
                            if i == n_ids or ids[i] != doc_id:
                                continue
                            freq = freqs[i]
                            sqrt_tf = (_SQRT[freq] if freq < _SQRT_LIMIT
                                       else freq ** 0.5)
                            if unit_weight:
                                part = sqrt_tf * idf_sq * norms[doc_id]
                            else:
                                part = (weight * sqrt_tf * idf_sq
                                        * norms[doc_id])
                            prev = slot[doc_id]
                            slot[doc_id] = prev + part
                            if prev == 0.0:
                                matched[doc_id] += 1
                    else:
                        for doc_id, freq in zip(ids, freqs):
                            if matched[doc_id] == 0:
                                continue
                            sqrt_tf = (_SQRT[freq] if freq < _SQRT_LIMIT
                                       else freq ** 0.5)
                            if unit_weight:
                                part = sqrt_tf * idf_sq * norms[doc_id]
                            else:
                                part = (weight * sqrt_tf * idf_sq
                                        * norms[doc_id])
                            prev = slot[doc_id]
                            slot[doc_id] = prev + part
                            if prev == 0.0:
                                matched[doc_id] += 1

        # Final scores: replay the exhaustive addition order — ascending
        # group index, skipping groups the document did not match (the
        # exhaustive loop adds nothing for those).
        def final_scores():
            for doc_id in touched:
                total = 0.0
                for g in range(n_groups):
                    part = slots[g][doc_id]
                    if part:
                        total += part
                if use_coordination:
                    total *= matched[doc_id] / n_groups
                yield doc_id, total

        self.last_stats = SearchStats(
            strategy="pruned", term_count=len(terms),
            docs_scored=len(touched), pruned_early=and_mode)
        return self._top_hits(final_scores(), matched, top_n)

    def _dense_norm_column(self, snapshot, capacity: int) -> array:
        """Norms as a doc-id-indexed array, cached per generation.

        Holds the exact floats of the norms dict (unindexed slots stay
        0.0 and are never read — postings only reference live docs), so
        the hot loop gathers with a C-level array index instead of a
        dict hash per posting.
        """
        cached = self._dense_norms
        if cached is not None and cached[0] == snapshot.generation \
                and len(cached[1]) >= capacity:
            return cached[1]
        column = array("d", bytes(8 * capacity))
        for doc_id, norm in snapshot.norms.items():
            column[doc_id] = norm
        self._dense_norms = (snapshot.generation, column)
        return column

    # -- shared tail -------------------------------------------------------

    def _top_hits(self, scored, matched, top_n: int) -> list[IndexHit]:
        best = heapq.nlargest(top_n, scored,
                              key=lambda item: (item[1], -item[0]))
        return [
            IndexHit(doc_id=doc_id, score=score,
                     matched_terms=matched[doc_id],
                     title=self._index.document(doc_id).title)
            for doc_id, score in best
        ]
