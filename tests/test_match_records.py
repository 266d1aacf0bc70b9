"""The record path: phase 2 scores candidates from index-carried keys.

Each indexed document carries a :class:`~repro.index.records.MatchRecord`
and phase 2 scores from it, decoding no payload and building no
:class:`~repro.matching.profile.SchemaMatchProfile`.  These tests hold
that path to the profile path it replaced — the same pages, exact floats
and element matches included, on the memory, segmented, sharded and
replica indexes — and pin what it costs: zero decodes per search, one
decode per refreshed document, one location probe per candidate.  They
also cover the record sections of the segment format: merge equals a
fresh write, ``verify-index`` names a corrupted record section, and a
format-2 segment is refused.
"""

from __future__ import annotations

import json
import struct
import sys
import tempfile
import threading
import time
import weakref
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.config import SchemrConfig
from repro.core.engine import InProcessExecutor, SchemrEngine
from repro.corpus.generator import CorpusGenerator
from repro.errors import IndexError_, QueryError, SchemaError
from repro.index.documents import Document, document_from_schema
from repro.index.inverted import InvertedIndex
from repro.index.segments import (MmapSegment, SegmentedIndex,
                                  ShardedSegmentIndex, TieredMergePolicy,
                                  file_crc32, open_segment_index,
                                  verify_directory, write_segment)
from repro.index.segments.format import SECTIONS
from repro.matching.context import ContextMatcher
from repro.matching.datatype import DataTypeMatcher
from repro.matching.ensemble import MatcherEnsemble
from repro.matching.exact import ExactMatcher
from repro.matching.name import NameMatcher
from repro.matching.profile import SchemaMatchProfile
from repro.matching.structure import StructureMatcher
from repro.matching.synonym import SynonymMatcher
from repro.model.elements import Attribute, Entity, ForeignKey
from repro.model.query import QueryGraph
from repro.model.schema import Schema
from repro.replication import DirectorySource, ReplicaSyncer
from repro.repository.store import SchemaRepository
from repro.sharding import ShardedEngine
from repro.telemetry import Telemetry

#: Names that repeat across entities and schemas, abbreviations the
#: analyser expands, names with no words at all, non-ASCII, and dotted
#: names (an entity ``a.b`` beside an entity ``a``).
NAMES = ["patient", "id", "name", "Name", "pat_ht", "height", "dob",
         "site", "site_id", "a.b", "a", "b", "höhe", "_", "qty", "doctor"]
TYPES = ["INTEGER", "VARCHAR(20)", "DATE", "", "BLOB", "uuid", "CHAR(1)"]


def full_ensemble() -> MatcherEnsemble:
    """Every column matcher: each kind of key the record derives."""
    return MatcherEnsemble([NameMatcher(), ContextMatcher(), ExactMatcher(),
                            SynonymMatcher(), DataTypeMatcher(),
                            StructureMatcher()])


@st.composite
def schemas(draw, name: str = "s") -> Schema:
    """A schema with possibly empty entities, FK chains closed into
    cycles, self-references, and dotted entity names."""
    entities = []
    for entity_name in draw(st.lists(st.sampled_from(NAMES), min_size=1,
                                     max_size=4, unique=True)):
        attributes = draw(st.lists(st.sampled_from(NAMES), max_size=4,
                                   unique=True))
        entities.append(Entity(entity_name, [
            Attribute(attribute, draw(st.sampled_from(TYPES)))
            for attribute in attributes]))
    keyed = [entity for entity in entities if entity.attributes]
    pairs = []
    if len(keyed) > 1 and draw(st.booleans()):
        # A chain closed into a cycle.
        pairs += list(zip(keyed, keyed[1:] + keyed[:1]))
    pairs += draw(st.lists(st.tuples(st.sampled_from(keyed),
                                     st.sampled_from(keyed)),
                           max_size=2)) if keyed else []
    foreign_keys = [ForeignKey(a.name, a.attributes[0].name,
                               b.name, b.attributes[-1].name)
                    for a, b in pairs]
    try:
        return Schema(name, entities={e.name: e for e in entities},
                      foreign_keys=foreign_keys, description=f"{name} desc")
    except SchemaError:  # two elements at one path
        assume(False)


@st.composite
def queries(draw) -> QueryGraph:
    keywords = draw(st.lists(st.sampled_from(NAMES), max_size=3))
    fragments = draw(st.lists(schemas(name="q"), max_size=1))
    if not keywords and not fragments:
        keywords = [draw(st.sampled_from(NAMES))]
    return QueryGraph.build(keywords=keywords, fragments=fragments)


class ProfileExecutor(InProcessExecutor):
    """The reference: each candidate decoded from its payload and
    profiled with :meth:`SchemaMatchProfile.build`, as phase 2 did
    before the index carried records."""

    def _read_candidate(self, doc_id):
        schema = Schema.from_payload(
            self._query.view.document(doc_id).payload)
        return SchemaMatchProfile.build(schema), schema


def profile_engine(index, ensemble) -> SchemrEngine:
    config = SchemrConfig()
    telemetry = Telemetry.from_config(config)
    return SchemrEngine(config=config, telemetry=telemetry,
                        executor=ProfileExecutor(index, ensemble, config,
                                                 time.monotonic,
                                                 telemetry.metrics),
                        owns_telemetry=True)


def page_of(results) -> list[tuple]:
    """Everything a page shows, floats exact."""
    return [(r.schema_id, r.name, r.description, repr(r.score),
             repr(r.coarse_score), r.match_count, r.entity_count,
             r.attribute_count, r.best_anchor,
             sorted((path, repr(value))
                    for path, value in r.element_scores.items()),
             [(m.query_label, m.element_path, repr(m.score))
              for m in r.element_matches])
            for r in results]


def corpus_documents(corpus: list[Schema]) -> list[Document]:
    for schema_id, schema in enumerate(corpus, start=1):
        schema.name = f"s{schema_id}"
        schema.schema_id = schema_id
    return [document_from_schema(schema) for schema in corpus]


def indexes(root: Path, documents: list[Document]) -> dict:
    """The same documents behind the four index layouts."""
    memory = InvertedIndex()
    segmented = SegmentedIndex.open(root / "flat", create=True)
    sharded = ShardedSegmentIndex.open(root / "sharded", shards=2,
                                       create=True)
    half = len(documents) // 2
    for i, document in enumerate(documents):
        memory.add(document)
        segmented.add(document)
        sharded.add(document)
        if i + 1 == half:
            segmented.flush(last_change_id=1)  # two segments
    segmented.flush(last_change_id=2)
    sharded.flush(last_change_id=2)
    syncer = ReplicaSyncer(DirectorySource(root / "flat"), root / "replica")
    syncer.sync_once()
    return {"memory": memory, "segmented": segmented, "sharded": sharded,
            "replica": open_segment_index(root / "replica")}


def _page_or_error(engine, query):
    """The page, or the error a query with no analysable term gets."""
    try:
        return page_of(engine.search_graph(query, top_n=10))
    except QueryError as exc:
        return str(exc)


class TestRecordPathEqualsProfilePath:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.filter_too_much])
    @given(corpus=st.lists(schemas(), min_size=3, max_size=7),
           query=queries())
    def test_pages_equal_on_every_path(self, corpus, query):
        documents = corpus_documents(corpus)
        with tempfile.TemporaryDirectory() as root:
            served = indexes(Path(root), documents)
            for ensemble in (MatcherEnsemble.default(), full_ensemble()):
                want = _page_or_error(profile_engine(served["memory"],
                                                     ensemble), query)
                for name, index in served.items():
                    engine = SchemrEngine(index=index, ensemble=ensemble)
                    assert _page_or_error(engine, query) == want, name

    def test_process_sharded_engine_equals_profile_path(self, tmp_path):
        """The scatter-gather pool's workers score from the records of
        the shard segments they map."""
        db = str(tmp_path / "repo.db")
        with SchemaRepository(db) as repo, SchemaRepository(db) as other:
            for generated in CorpusGenerator(seed=5).stream(60):
                repo.add_schema(generated.schema)
            other.reindex()
            reference = profile_engine(other.indexer().index,
                                       MatcherEnsemble.default())
            sharded = ShardedEngine(repo, config=SchemrConfig(
                segment_dir=str(tmp_path / "segs"), shards=2))
            try:
                for keywords in ("patient name address", "order item price",
                                 "species site date"):
                    assert page_of(sharded.search(keywords=keywords)) == \
                        page_of(reference.search(keywords=keywords))
            finally:
                sharded.close()
                reference.close()


def fragment_query() -> dict:
    return {"keywords": "patient height",
            "fragment": "CREATE TABLE patient (id INTEGER PRIMARY KEY, "
                        "height DECIMAL(5,2), dob DATE, gender CHAR(1));"}


@pytest.fixture
def generated_db(tmp_path) -> str:
    db = str(tmp_path / "repo.db")
    with SchemaRepository(db) as repo:
        for generated in CorpusGenerator(seed=13).stream(120):
            repo.add_schema(generated.schema)
    return db


def count_calls(monkeypatch, owner, name: str) -> list:
    """Spy on the classmethod ``owner.name``; returns the call list."""
    calls = []
    real = getattr(owner, name).__func__
    monkeypatch.setattr(owner, name, classmethod(
        lambda cls, *args: calls.append(args) or real(cls, *args)))
    return calls


class TestDecodeCounts:
    def test_search_decodes_no_payload_and_builds_no_profile(
            self, generated_db, tmp_path, monkeypatch):
        """A cold fragment search over a segmented engine scores every
        candidate from its record."""
        with SchemaRepository(generated_db) as repo:
            engine = repo.engine(config=SchemrConfig(
                segment_dir=str(tmp_path / "segs"), query_cache_size=0))
            try:
                decodes = count_calls(monkeypatch, Schema, "from_payload")
                builds = count_calls(monkeypatch, SchemaMatchProfile,
                                     "build")
                page = engine.search(**fragment_query())
                candidates = engine.last_profile.phase_items[
                    "schema_matching"][0]
                assert page and candidates > 10
                assert decodes == [] and builds == []
            finally:
                engine.close()

    def test_refresh_decodes_each_document_once_and_encodes_none(
            self, generated_db, tmp_path, monkeypatch):
        """Records come from the schema the refresh already decoded."""
        with SchemaRepository(generated_db) as repo:
            decodes = count_calls(monkeypatch, Schema, "from_json")
            encodes = []
            to_json = Schema.to_json
            monkeypatch.setattr(Schema, "to_json", lambda schema: (
                encodes.append(schema.schema_id) or to_json(schema)))
            indexer = repo.indexer(segment_dir=str(tmp_path / "segs"))
            assert indexer.refresh() == 120
            assert len(decodes) == 120
            assert encodes == []

    def test_codebook_ensemble_still_decodes_its_candidates(self):
        """A matcher that reads the schema itself gets it decoded."""
        from repro.codebook.matcher import CodebookMatcher
        index = InvertedIndex()
        for document in corpus_documents([
                Schema("x", entities={"person": Entity(
                    "person", [Attribute("stature", "DECIMAL")])})]):
            index.add(document)
        engine = SchemrEngine(index=index, ensemble=MatcherEnsemble(
            [NameMatcher(), CodebookMatcher()]))
        (result,) = engine.search(keywords="person height")
        assert result.match_count == 2


class TestOneLocationProbe:
    def test_one_segment_view_probes_each_candidate_at_most_once(
            self, generated_db, tmp_path, monkeypatch):
        with SchemaRepository(generated_db) as repo:
            engine = repo.engine(config=SchemrConfig(
                segment_dir=str(tmp_path / "segs"), query_cache_size=0))
            try:
                view = engine.searcher.index.view()
                assert len(view.segments) == 1 and not view.delta.documents
                probes = []
                has_document = MmapSegment.has_document
                monkeypatch.setattr(
                    MmapSegment, "has_document",
                    lambda segment, doc_id: probes.append(doc_id)
                    or has_document(segment, doc_id))
                engine.search(keywords="patient name address")
                candidates = engine.last_profile.phase_items[
                    "schema_matching"][0]
                assert candidates > 10
                assert len(probes) <= candidates
            finally:
                engine.close()


class TestSharedNameAnalysis:
    def test_threads_deriving_keys_from_one_segment_agree(self, tmp_path):
        """A segment's name table memoises analysis for every reader;
        eight threads filling it at once derive exactly the keys one
        thread derives."""
        documents = corpus_documents([generated.schema for generated
                                      in CorpusGenerator(seed=3).stream(60)])
        index = InvertedIndex()
        for document in documents:
            index.add(document)
        path = tmp_path / "a.seg"
        write_segment(path, index)

        def keys_of(segment):
            out = []
            for document in segment.documents():
                keys = document.record.keys(document.doc_id, document.title)
                out.append((keys.element_paths, keys.element_words(),
                            keys.element_words(False),
                            keys.element_contexts(),
                            keys.element_families(), keys.element_shapes()))
            return out

        want = keys_of(MmapSegment(path))
        shared = MmapSegment(path)
        results: list = [None] * 8
        barrier = threading.Barrier(8)

        def work(slot):
            barrier.wait()
            results[slot] = keys_of(shared)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(result == want for result in results)


# -- segment format ------------------------------------------------------------

class _MergeAll:
    def select(self, live_sizes, dead_counts):
        if len(live_sizes) > 1 or (live_sizes and dead_counts[0]):
            return list(range(len(live_sizes)))
        return None


OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), schemas()),
        st.tuples(st.just("replace"), st.integers(0, 1 << 16), schemas()),
        st.tuples(st.just("remove"), st.integers(0, 1 << 16)),
        st.tuples(st.just("flush")),
    ),
    min_size=1, max_size=30)


class TestRecordSections:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.filter_too_much])
    @given(operations=OPERATIONS)
    def test_merged_records_equal_a_fresh_write(self, operations):
        """Merging segments re-interns every live record into one name
        dictionary: the merged file equals a fresh write of the live
        documents, record sections included."""
        with tempfile.TemporaryDirectory() as root:
            index = SegmentedIndex.open(Path(root) / "d", create=True)
            live: dict[int, Document] = {}
            next_id = 1
            for operation in operations:
                kind = operation[0]
                if kind == "add":
                    operation[1].schema_id = next_id
                    live[next_id] = document_from_schema(operation[1])
                    index.add(live[next_id])
                    next_id += 1
                elif kind in ("replace", "remove") and live:
                    doc_id = sorted(live)[operation[1] % len(live)]
                    if kind == "replace":
                        operation[2].schema_id = doc_id
                        live[doc_id] = document_from_schema(operation[2])
                        index.replace(live[doc_id])
                    else:
                        index.remove(doc_id)
                        del live[doc_id]
                elif kind == "flush":
                    index.flush()
            index.flush()
            while index.maybe_merge(_MergeAll()):
                pass
            if not live:
                return
            (merged,) = sorted((Path(root) / "d").glob("seg_*.seg"))
            fresh_index = InvertedIndex()
            for document in live.values():
                fresh_index.add(document)
            fresh = Path(root) / "fresh.seg"
            write_segment(fresh, fresh_index)
            assert merged.read_bytes() == fresh.read_bytes()
            segment = MmapSegment(merged)
            for document in segment.documents():
                assert document.record.strings() == \
                    live[document.doc_id].record.strings()

    def test_tiered_merges_keep_record_pages(self, tmp_path):
        """Pages read through merged records equal the memory index's."""
        documents = corpus_documents([generated.schema for generated
                                      in CorpusGenerator(seed=9).stream(80)])
        index = SegmentedIndex.open(tmp_path / "d", create=True)
        memory = InvertedIndex()
        for i, document in enumerate(documents):
            index.add(document)
            memory.add(document)
            if i % 10 == 9:
                index.flush()
                index.maybe_merge(TieredMergePolicy(max_per_tier=2,
                                                    floor_docs=8))
        index.flush()
        assert index.segment_count > 1
        want = SchemrEngine(index=memory, ensemble=full_ensemble())
        got = SchemrEngine(index=index, ensemble=full_ensemble())
        for query in (fragment_query(), {"keywords": "order customer"}):
            assert page_of(got.search(**query)) == \
                page_of(want.search(**query))


def _flat_dir(tmp_path: Path) -> Path:
    """A committed one-segment directory of 12 generated schemas;
    returns the segment file."""
    index = SegmentedIndex.open(tmp_path, create=True)
    for document in corpus_documents([generated.schema for generated
                                      in CorpusGenerator(seed=4).stream(12)]):
        index.add(document)
    index.flush(last_change_id=12)
    return next(tmp_path.glob("seg_*.seg"))


def _corrupt(segment: Path, section: str, patch) -> None:
    """Let ``patch`` rewrite one section's bytes in place, then
    re-record the file's CRC in the manifest: corruption only the
    section's verifier can see."""
    blob = bytearray(segment.read_bytes())
    spans = struct.unpack_from("<" + "QQ" * len(SECTIONS), blob, 56)
    at = [row.name for row in SECTIONS].index(section)
    start, size = spans[2 * at], spans[2 * at + 1]
    blob[start:start + size] = patch(bytes(blob[start:start + size]))
    segment.write_bytes(bytes(blob))
    _record_crc(segment)


def _record_crc(segment: Path) -> None:
    """Re-record ``segment``'s CRC in its manifest."""
    manifest_path = segment.parent / "MANIFEST.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["segments"][0]["crc32"] = file_crc32(segment)
    manifest_path.write_text(json.dumps(manifest))


def _problems(path: Path) -> list[str]:
    report = verify_directory(path)
    assert not report.ok
    return [message for _, message in report.problems]


class TestSegmentLifetime:
    def test_a_dropped_segment_unmaps_without_a_collection(self, tmp_path):
        """The name table holds the segment's sections, not the
        segment: no cycle keeps a dropped segment's map alive until a
        garbage collection."""
        segment_path = _flat_dir(tmp_path)
        segment = MmapSegment(segment_path)
        document = segment.document_at(0)
        document.record.keys(document.doc_id, document.title).element_words()
        mapped = weakref.ref(segment._mmap)
        del segment, document
        assert mapped() is None


class TestVerifyAndFormat:
    def test_clean_directory_verifies(self, tmp_path):
        _flat_dir(tmp_path)
        report = verify_directory(tmp_path)
        assert report.ok and report.documents_checked == 12

    def test_out_of_range_name_ordinal_names_rec_names(self, tmp_path):
        segment = _flat_dir(tmp_path)
        _corrupt(segment, "rec_names",
                 lambda data: struct.pack("<i", 1 << 30) + data[4:])
        assert any(message.startswith("section rec_names:")
                   for message in _problems(tmp_path))

    def test_torn_shape_names_rec_shape(self, tmp_path):
        segment = _flat_dir(tmp_path)
        # The first document's entity count, doubled: its shape and its
        # names no longer agree.
        _corrupt(segment, "rec_shape", lambda data: struct.pack(
            "<i", 2 * struct.unpack_from("<i", data)[0] + 1) + data[4:])
        assert any(message.startswith("section rec_shape: document")
                   for message in _problems(tmp_path))

    def test_unsorted_name_dictionary_names_name_bytes(self, tmp_path):
        segment = _flat_dir(tmp_path)
        _corrupt(segment, "name_bytes", lambda data: data[::-1])
        assert any(message.startswith("section name_bytes:")
                   for message in _problems(tmp_path))

    def test_format_2_segment_is_refused_with_the_rebuild(self, tmp_path):
        segment = _flat_dir(tmp_path)
        blob = bytearray(segment.read_bytes())
        struct.pack_into("<I", blob, 8, 2)
        segment.write_bytes(bytes(blob))
        _record_crc(segment)
        with pytest.raises(IndexError_,
                           match="unsupported format 2.*schemr index"):
            MmapSegment(segment)
        with pytest.raises(IndexError_, match="schemr index"):
            SegmentedIndex.open(tmp_path)
        assert any("schemr index" in message
                   for message in _problems(tmp_path))

    def test_a_document_without_a_record_is_never_scored(self, tmp_path):
        """A document indexed directly carries no record: phase 2
        skips it (a failed read), exactly as it skipped a payload-less
        one."""
        index = SegmentedIndex.open(tmp_path, create=True)
        index.add(Document(1, "bare", terms=["patient"]))
        (clinic,) = corpus_documents([Schema("c", entities={
            "patient": Entity("patient", [Attribute("height")])})])
        clinic.doc_id = 2
        index.add(Document(2, clinic.title, terms=clinic.terms,
                           payload=clinic.payload, record=clinic.record))
        index.flush()
        engine = SchemrEngine(index=index)
        assert [r.schema_id for r in engine.search(keywords="patient")] == [2]
        assert engine.store_breaker.failure_count == 1
