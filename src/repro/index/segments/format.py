"""The immutable on-disk segment format and its mmap reader.

One segment file holds a complete, self-contained slice of the index:
term dictionary, packed postings columns, positions, length norms, the
document store, the stored schema payloads and the match records.  The
layout is columnar and 8-byte aligned so the reader can expose every
numeric section as a zero-copy ``memoryview.cast`` over the ``mmap`` —
opening a segment parses a fixed-size header and builds a handful of
views; no postings are materialized until a query touches them.

The sections are declared once, in :data:`SECTIONS`: each row names a
section, the element type it is cast to, the writer's producer and the
verifier ``schemr verify-index`` runs over it.  The header records each
section's offset and byte length in table order, so the reader,
the writer and the verifier all walk the same table and a new section
is one row.  File layout (all integers little-endian)::

    header        magic, version, crc32(header), counts, file length,
                  (offset, bytes) per section
    tstr_off      (T+1) x u64   offsets into term_bytes (terms sorted)
    term_bytes    concatenated UTF-8 term strings
    post_off      (T+1) x u64   cumulative document frequency per term
    pos_off       (T+1) x u64   cumulative collection frequency per term
    max_freqs     T x i64       per-term max document frequency
    doc_ids       P x i64       postings doc-id columns, term-major
    freqs         P x i64       parallel frequency columns
    positions     C x i64       term-major, doc-major position streams
    norm_ids      D x i64       sorted doc ids
    norms         D x f64       parallel length norms
    doc_off       (D+1) x u64   offsets into doc_blob
    doc_blob      per-doc packed records (title, summary, term ordinals)
    pay_off       (D+1) x u64   offsets into pay_blob
    pay_blob      per-doc stored schema payloads, doc-id order
    name_off      (K+1) x u64   offsets into name_bytes (names sorted)
    name_bytes    concatenated UTF-8 entity/attribute/type names
    rec_name_off  (D+1) x u64   offsets into rec_names
    rec_names     i32 name ordinals of each document's match record
    rec_shape_off (D+1) x u64   offsets into rec_shape
    rec_shape     i32 entity shape of each document's match record

where ``T`` = term count, ``D`` = document count, ``P`` = total
postings (sum of df), ``C`` = total positions (sum of cf) and ``K`` =
distinct names.  A document's token stream is stored as i32 *ordinals*
into the sorted term dictionary, so the document store shares the
dictionary's string storage and round-trips exactly.  A document's
match record (:class:`~repro.index.records.MatchRecord`) is stored the
same way against the name dictionary: phase 2 scores candidates from
it and decodes no payload.  Each document's stored schema payload
(:attr:`~repro.index.documents.Document.payload`) sits in a section of
its own, so reading titles or records never touches payload pages;
only ``/schema/<id>`` decodes one.

Writing goes through a temp file renamed into place
(:func:`write_segment`), so a crash mid-write never leaves a partial
segment where a reader could find it.  The header records the total
file length; the reader verifies it (plus a header CRC) and raises
:class:`~repro.errors.IndexError_` on any mismatch.  A segment of an
older format is refused with a message naming the rebuild.
"""

from __future__ import annotations

import bisect
import mmap
import os
import struct
import zlib
from array import array
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from pathlib import Path
from typing import Callable, Iterator

from repro.errors import IndexError_, SchemaError
from repro.index.documents import Document
from repro.index.postings import (Posting, position_offsets,
                                  postings_from_columns)
from repro.index.records import MatchRecord, NameTable, record_columns
from repro.model.schema import Schema
from repro.resilience.faults import FAULTS

MAGIC = b"SCHMRSEG"
FORMAT_VERSION = 3

#: Magic and version: read before the rest, whose shape the version sets.
_PREFIX = struct.Struct("<8sI")
#: CRC covers everything after the crc field itself.
_CRC_OFFSET = 16

#: Decoded-document cache bound per segment: enough to keep every
#: realistic result page warm, small enough to stay out of the way of
#: the mmap memory model (the cache is dropped wholesale when full).
_DOC_CACHE_MAX = 8192

_DOC_REC = struct.Struct("<III")  # title_len, summary_len, term_count


def _align8(n: int) -> int:
    return (n + 7) & ~7


def file_crc32(path: str | Path, chunk_bytes: int = 1 << 20) -> int:
    """CRC32 of a whole file, streamed (replication/verify checksums).

    The manifest records this per segment at commit time; replicas
    verify pulled files against it and ``schemr verify-index`` re-checks
    it on demand, so corruption anywhere in the pipeline — torn local
    write, truncated download, bit rot — is named, never silent.
    """
    crc = 0
    with open(path, "rb") as handle:
        while True:
            block = handle.read(chunk_bytes)
            if not block:
                return crc
            crc = zlib.crc32(block, crc)


# -- what the writer lays out ---------------------------------------------

class _Columns:
    """Every section's content for one :func:`write_segment` call.

    One pass over the term dictionary gathers every postings-derived
    column, each term's as whole packed columns (no per-posting
    objects); terms whose live postings are empty (every occurrence
    tombstoned) are dropped from the dictionary.  Payloads are streamed
    from their source (delta bytes or a merged segment's map) without
    collecting them.
    """

    def __init__(self, index) -> None:
        terms = []
        self.post_off = array("Q", [0])
        self.pos_off = array("Q", [0])
        self.max_freqs = array("q")
        self.doc_ids = bytearray()
        self.freqs = bytearray()
        self.positions = bytearray()
        for term, postings in _term_postings(index):
            if not postings:
                continue
            terms.append(term)
            self.doc_ids += postings.doc_ids_array()
            self.freqs += postings.frequencies_array()
            self.max_freqs.append(postings.max_frequency)
            self.positions += postings.positions_array()
            self.post_off.append(len(self.doc_ids) // 8)
            self.pos_off.append(len(self.positions) // 8)
        self.term_count = len(terms)
        self.total_postings = self.post_off[-1]
        self.total_positions = self.pos_off[-1]
        self.term_blobs = [term.encode("utf-8") for term in terms]
        ordinals = {term: i for i, term in enumerate(terms)}

        documents = self.documents = sorted(index.documents(),
                                            key=lambda d: d.doc_id)
        self.norm_ids = array("q", (d.doc_id for d in documents))
        self.norms = array("d", (index.norm(d.doc_id) for d in documents))
        self.doc_records = []
        for document in documents:
            title = document.title.encode("utf-8")
            summary = document.summary.encode("utf-8")
            stream = array("i", map(ordinals.__getitem__, document.terms))
            self.doc_records.append(
                _DOC_REC.pack(len(title), len(summary), len(document.terms))
                + title + summary + stream.tobytes())
        (names, self.rec_name_off, self.rec_names, self.rec_shape_off,
         self.rec_shape) = record_columns([d.record for d in documents])
        self.name_blobs = [name.encode("utf-8") for name in names]


def _string_offsets(blobs: list[bytes]) -> array:
    return array("Q", accumulate(map(len, blobs), initial=0))


def _decode_strings(offsets, blob) -> tuple[str, ...]:
    """The strings of a dictionary section pair, in ordinal order."""
    blob = bytes(blob)
    return tuple(str(blob[offsets[i]:offsets[i + 1]], "utf-8")
                 for i in range(len(offsets) - 1))


# -- what the verifier checks ---------------------------------------------
#
# A verifier gets the segment, its own section's data and the manifest's
# tombstones, and returns the problem it found or None.  Sections are
# verified in table order, so a verifier may trust every section before
# its own.

Verifier = Callable[["MmapSegment", object, "frozenset[int] | set[int]"],
                    "str | None"]


def _count(entries: Callable[["MmapSegment"], int],
           then: Verifier | None = None) -> Verifier:
    """A column of ``entries(segment)`` elements (then ``then``)."""
    def verify(segment: "MmapSegment", data, deleted) -> str | None:
        expected = entries(segment)
        if len(data) != expected:
            return f"holds {len(data)} entries, expected {expected}"
        return None if then is None else then(segment, data, deleted)
    return verify


def _offsets(entries: Callable[["MmapSegment"], int],
             target: str) -> Verifier:
    """``entries + 1`` non-decreasing offsets from 0 to the length of
    section ``target``."""
    def monotonic(segment: "MmapSegment", data, deleted) -> str | None:
        end = len(segment.sections[target])
        if data[0] != 0 or data[len(data) - 1] != end:
            return f"offsets do not span {target} (0..{end})"
        previous = 0
        for value in data:
            if value < previous:
                return "offsets are not monotonic"
            previous = value
        return None
    return _count(lambda segment: entries(segment) + 1, monotonic)


def _sorted_strings(offsets: str, what: str) -> Verifier:
    """Strictly ascending UTF-8 strings (binary search depends on it)."""
    def verify(segment: "MmapSegment", data, deleted) -> str | None:
        off = segment.sections[offsets]
        previous = b""
        for i in range(len(off) - 1):
            blob = bytes(data[off[i]:off[i + 1]])
            if i and blob <= previous:
                return f"{what} dictionary unsorted at ordinal {i}"
            try:
                blob.decode("utf-8")
            except UnicodeDecodeError:
                return f"{what} ordinal {i} is not UTF-8"
            previous = blob
        return None
    return verify


def _verify_postings(segment: "MmapSegment", freqs, deleted) -> str | None:
    """Per term: doc ids strictly increasing, frequencies positive and
    summing to the term's positions extent."""
    post_off, pos_off = segment._post_off, segment._pos_off
    ids = segment._doc_ids
    for i in range(segment.term_count):
        previous_id = -1
        total = 0
        for j in range(post_off[i], post_off[i + 1]):
            if ids[j] <= previous_id:
                return f"postings doc ids unsorted for term ordinal {i}"
            previous_id = ids[j]
            if freqs[j] <= 0:
                return f"non-positive frequency for term ordinal {i}"
            total += freqs[j]
        if total != pos_off[i + 1] - pos_off[i]:
            return (f"positions extent disagrees with frequencies for "
                    f"term ordinal {i}")
    return None


def _verify_doc_ids(segment: "MmapSegment", ids, deleted) -> str | None:
    previous = -1
    for i, doc_id in enumerate(ids):
        if doc_id <= previous:
            return f"document ids unsorted at index {i}"
        previous = doc_id
    return None


def _verify_doc_blob(segment: "MmapSegment", blob, deleted) -> str | None:
    """Every document record decodes within its bounds, and its term
    ordinals name dictionary terms."""
    doc_off = segment._doc_off
    for i in range(segment.document_count):
        start, end = doc_off[i], doc_off[i + 1]
        if end - start < _DOC_REC.size:
            return f"document record {i} does not decode: too short"
        title_len, summary_len, n_terms = _DOC_REC.unpack_from(blob, start)
        size = _DOC_REC.size + title_len + summary_len + 4 * n_terms
        if size != end - start:
            return (f"document record {i} does not decode: {size} bytes "
                    f"declared, {end - start} stored")
        stream = blob[end - 4 * n_terms:end].cast("i")
        if n_terms and not 0 <= min(stream) <= max(stream) \
                < segment.term_count:
            return f"document record {i} names a term outside the dictionary"
        try:
            str(blob[start + _DOC_REC.size:end - 4 * n_terms], "utf-8")
        except UnicodeDecodeError:
            return f"document record {i} does not decode: bad UTF-8"
    return None


def _verify_payloads(segment: "MmapSegment", blob, deleted) -> str | None:
    """Every live payload decodes to the schema its doc id names (a
    tombstoned one is never served; a document indexed directly rather
    than from a repository carries none)."""
    pay_off = segment._pay_off
    for i, doc_id in enumerate(segment._norm_ids):
        payload = blob[pay_off[i]:pay_off[i + 1]]
        if doc_id in deleted or not len(payload):
            continue
        try:
            schema = Schema.from_payload(payload)
        except SchemaError as exc:
            return f"document {doc_id}: payload does not decode to a " \
                   f"schema: {exc}"
        if schema.schema_id != doc_id:
            return f"document {doc_id}: payload holds schema " \
                   f"{schema.schema_id}"
    return None


def _verify_record_names(segment: "MmapSegment", names,
                         deleted) -> str | None:
    if len(names) and not 0 <= min(names) <= max(names) \
            < len(segment.names):
        return "a record names an ordinal outside the name dictionary"
    return None


def _verify_record_shapes(segment: "MmapSegment", shape,
                          deleted) -> str | None:
    """Each document's record shape parses, and its name column has one
    ordinal per element plus one type per attribute."""
    shape_off, name_off = segment._rec_shape_off, segment._rec_name_off
    for i, doc_id in enumerate(segment._norm_ids):
        cells = shape[shape_off[i]:shape_off[i + 1]].tolist()
        names = name_off[i + 1] - name_off[i]
        if not cells:
            if names:
                return f"document {doc_id}: names without a record shape"
            continue
        problem = _shape_problem(cells, names)
        if problem is not None:
            return f"document {doc_id}: record {problem}"
    return None


def _shape_problem(cells: list[int], names: int) -> str | None:
    entities = cells[0]
    if entities < 0 or len(cells) < 1 + 3 * entities:
        return "shape is truncated"
    counts = cells[1:1 + entities]
    components = cells[1 + entities:1 + 2 * entities]
    degrees = cells[1 + 2 * entities:1 + 3 * entities]
    neighbors = cells[1 + 3 * entities:]
    if min(counts + degrees, default=0) < 0 \
            or len(neighbors) != sum(degrees):
        return "shape has bad counts"
    if names != entities + 2 * sum(counts):
        return f"shape wants {entities + 2 * sum(counts)} names, has {names}"
    if not all(0 <= c < entities for c in components + neighbors):
        return "shape names an entity out of range"
    return None


@dataclass(frozen=True)
class Section:
    """One row of the segment layout: its name, the element type the
    reader casts it to (``B``: raw bytes), what the writer puts there,
    and what ``schemr verify-index`` checks of it."""

    name: str
    kind: str
    produce: Callable[[_Columns], object]
    verify: Verifier


def _terms(segment: "MmapSegment") -> int:
    return segment.term_count


def _docs(segment: "MmapSegment") -> int:
    return segment.document_count


#: The segment layout, in file order.
SECTIONS: tuple[Section, ...] = (
    Section("tstr_off", "Q", lambda c: _string_offsets(c.term_blobs),
            _offsets(_terms, "term_bytes")),
    Section("term_bytes", "B", lambda c: b"".join(c.term_blobs),
            _sorted_strings("tstr_off", "term")),
    Section("post_off", "Q", lambda c: c.post_off,
            _offsets(_terms, "doc_ids")),
    Section("pos_off", "Q", lambda c: c.pos_off,
            _offsets(_terms, "positions")),
    Section("max_freqs", "q", lambda c: c.max_freqs, _count(_terms)),
    Section("doc_ids", "q", lambda c: c.doc_ids,
            _count(lambda s: s.total_postings)),
    Section("freqs", "q", lambda c: c.freqs,
            _count(lambda s: s.total_postings, _verify_postings)),
    Section("positions", "q", lambda c: c.positions,
            _count(lambda s: s.total_positions)),
    Section("norm_ids", "q", lambda c: c.norm_ids,
            _count(_docs, _verify_doc_ids)),
    Section("norms", "d", lambda c: c.norms, _count(_docs)),
    Section("doc_off", "Q", lambda c: _string_offsets(c.doc_records),
            _offsets(_docs, "doc_blob")),
    Section("doc_blob", "B", lambda c: c.doc_records, _verify_doc_blob),
    Section("pay_off", "Q", lambda c: array("Q", accumulate(
        (len(d.payload) for d in c.documents), initial=0)),
        _offsets(_docs, "pay_blob")),
    Section("pay_blob", "B", lambda c: (d.payload for d in c.documents),
            _verify_payloads),
    Section("name_off", "Q", lambda c: _string_offsets(c.name_blobs),
            _offsets(lambda s: len(s.names), "name_bytes")),
    Section("name_bytes", "B", lambda c: b"".join(c.name_blobs),
            _sorted_strings("name_off", "name")),
    Section("rec_name_off", "Q", lambda c: c.rec_name_off,
            _offsets(_docs, "rec_names")),
    Section("rec_names", "i", lambda c: c.rec_names, _verify_record_names),
    Section("rec_shape_off", "Q", lambda c: c.rec_shape_off,
            _offsets(_docs, "rec_shape")),
    Section("rec_shape", "i", lambda c: c.rec_shape, _verify_record_shapes),
)

#: Header: magic, version, crc32, doc_count, term_count, total_postings,
#: total_positions, file_length, then (offset, bytes) per section.
_HEADER = struct.Struct("<8sII5Q" + "QQ" * len(SECTIONS))

#: The crash-injection site ``segments.write.torn`` fires before this
#: section: a torn ``.tmp`` then has real postings bytes but no norms,
#: document store, records or header.
_TORN_BEFORE = "norm_ids"


class _SectionWriter:
    """Sequential section writer: tracks offsets, pads to alignment."""

    def __init__(self, handle) -> None:
        self._handle = handle
        self._pos = _HEADER.size
        handle.write(b"\0" * _HEADER.size)
        self.spans: list[int] = []

    def section(self, content) -> None:
        """Write one section: a bytes-like object, or an iterable of
        them streamed chunk by chunk."""
        pad = _align8(self._pos) - self._pos
        if pad:
            self._handle.write(b"\0" * pad)
            self._pos += pad
        start = self._pos
        if isinstance(content, (bytes, bytearray, memoryview, array)):
            content = (content,)
        for chunk in content:
            view = memoryview(chunk)
            self._handle.write(view)
            self._pos += view.nbytes
        self.spans += (start, self._pos - start)

    @property
    def length(self) -> int:
        return self._pos


def write_segment(path: str | Path, index) -> None:
    """Serialize ``index`` into one segment file at ``path``, atomically.

    ``index`` is anything speaking the read side of the
    :class:`~repro.index.inverted.InvertedIndex` protocol
    (``vocabulary`` / ``postings`` / ``documents`` / ``norm``) — the
    live in-memory index, a delta, a :class:`SegmentedIndex`, or a
    :class:`~repro.index.segments.merge.CompactionView` being merged.
    The write happens to ``<path>.tmp`` which is fsynced and renamed
    into place.
    """
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    columns = _Columns(index)
    with open(tmp, "wb") as handle:
        w = _SectionWriter(handle)
        for section in SECTIONS:
            if section.name == _TORN_BEFORE:
                # Crash-injection site: the tmp is never renamed, so no
                # reader can find it; the recovery sweep unlinks it on
                # the next commit or sweep-enabled open.
                FAULTS.hit("segments.write.torn")
            w.section(section.produce(columns))
        header = _HEADER.pack(
            MAGIC, FORMAT_VERSION, 0, len(columns.documents),
            columns.term_count, columns.total_postings,
            columns.total_positions, w.length, *w.spans)
        crc = zlib.crc32(header[_CRC_OFFSET:])
        header = header[:12] + struct.pack("<I", crc) + header[_CRC_OFFSET:]
        handle.seek(0)
        handle.write(header)
        handle.flush()
        os.fsync(handle.fileno())
    # Crash-injection site: the segment is complete and durable under
    # its tmp name but not yet visible at ``path``.
    FAULTS.hit("segments.write.pre_rename")
    tmp.replace(path)


def _term_postings(index) -> Iterator[tuple[str, object]]:
    """``(term, postings)`` in term order.

    A source that can walk its dictionaries in order itself (a
    compaction view: one k-way pass over its segments' sorted term
    lists) says so with ``term_postings``; anything else is asked term
    by term over its sorted vocabulary.
    """
    walk = getattr(index, "term_postings", None)
    if walk is not None:
        return walk()
    return ((term, index.postings(term))
            for term in sorted(index.vocabulary()))


class SegmentPostings:
    """Read-only postings of one term inside an mmapped segment.

    Mirrors the read API of :class:`~repro.index.postings.PostingsList`;
    the doc-id, frequency and positions columns are zero-copy
    ``memoryview`` slices of the segment file.  The search hot path
    reads only the first two; a merge copies all three whole
    (:meth:`positions_array`).  Per-posting position offsets are
    prefix-summed once, on the first :meth:`get`, so every lookup after
    that is a bisect.
    """

    __slots__ = ("term", "_doc_ids", "_freqs", "_positions",
                 "_max_frequency", "_collection_frequency", "_offsets")

    def __init__(self, term: str, doc_ids, freqs, positions,
                 max_frequency: int, collection_frequency: int) -> None:
        self.term = term
        self._doc_ids = doc_ids
        self._freqs = freqs
        self._positions = positions
        self._max_frequency = max_frequency
        self._collection_frequency = collection_frequency
        self._offsets: list[int] | None = None

    @property
    def document_frequency(self) -> int:
        return len(self._doc_ids)

    @property
    def collection_frequency(self) -> int:
        return self._collection_frequency

    @property
    def max_frequency(self) -> int:
        return self._max_frequency

    def doc_ids_array(self):
        """The sorted doc-id column (a zero-copy memoryview)."""
        return self._doc_ids

    def frequencies_array(self):
        return self._freqs

    def positions_array(self):
        """The term's doc-major positions column (a zero-copy
        memoryview)."""
        return self._positions

    @property
    def postings(self) -> list[Posting]:
        return postings_from_columns(self._doc_ids, self._freqs,
                                     self._positions)

    def _find(self, doc_id: int) -> int | None:
        ids = self._doc_ids
        i = bisect.bisect_left(ids, doc_id)
        if i < len(ids) and ids[i] == doc_id:
            return i
        return None

    def get(self, doc_id: int) -> Posting | None:
        i = self._find(doc_id)
        if i is None:
            return None
        offsets = self._offsets
        if offsets is None:
            offsets = self._offsets = position_offsets(self._freqs)
        return Posting(doc_id,
                       list(self._positions[offsets[i]:offsets[i + 1]]))

    def frequency(self, doc_id: int) -> int:
        i = self._find(doc_id)
        return 0 if i is None else self._freqs[i]

    def doc_ids(self) -> list[int]:
        return list(self._doc_ids)

    def __iter__(self) -> Iterator[Posting]:
        return iter(self.postings)

    def __len__(self) -> int:
        return len(self._doc_ids)

    def __bool__(self) -> bool:
        return len(self._doc_ids) > 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"SegmentPostings(term={self.term!r}, "
                f"df={len(self._doc_ids)})")


class MmapSegment:
    """One immutable segment, memory-mapped.

    Opening parses the fixed header and casts every section of
    :data:`SECTIONS` to a typed memoryview — O(1) in the corpus size,
    which is what makes cold start milliseconds instead of a rebuild.
    All lookups are binary searches over the mapped columns; term and
    document payloads are decoded lazily on access.

    Readers hand out memoryview slices into the map, so the map stays
    alive as long as the segment or any slice does, and is unmapped
    when the last of them is dropped; the file is unlinked-safe on
    POSIX meanwhile.  Index views hold segments, so a merged-away
    segment goes with the last view that can read it.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        try:
            handle = open(self.path, "rb")
        except OSError as exc:
            raise IndexError_(f"segment {self.path} cannot be opened: "
                              f"{exc}") from exc
        # The map keeps its own descriptor, so the file closes now and
        # the map lives exactly as long as this segment and its views.
        with handle:
            try:
                self._mmap = mmap.mmap(handle.fileno(), 0,
                                       access=mmap.ACCESS_READ)
            except (ValueError, OSError) as exc:
                raise IndexError_(f"segment {self.path} cannot be "
                                  f"mapped: {exc}") from exc
        view = memoryview(self._mmap)
        if len(view) < _PREFIX.size:
            raise IndexError_(f"segment {self.path} is truncated: "
                              f"no room for a header")
        magic, version = _PREFIX.unpack_from(view, 0)
        if magic != MAGIC:
            raise IndexError_(f"segment {self.path} has a corrupt header "
                              f"(bad magic)")
        if version != FORMAT_VERSION:
            raise IndexError_(
                f"segment {self.path} has unsupported format {version!r}; "
                f"expected {FORMAT_VERSION}: rebuild the index from the "
                f"repository with `schemr index`")
        if len(view) < _HEADER.size:
            raise IndexError_(f"segment {self.path} is truncated: "
                              f"no room for a header")
        fields = _HEADER.unpack_from(view, 0)
        expected_crc = zlib.crc32(bytes(view[_CRC_OFFSET:_HEADER.size]))
        if fields[2] != expected_crc:
            raise IndexError_(f"segment {self.path} has a corrupt header "
                              f"(checksum mismatch)")
        (self.document_count, self.term_count, self.total_postings,
         self.total_positions, file_length) = fields[3:8]
        if file_length != len(view):
            raise IndexError_(
                f"segment {self.path} is truncated: header says "
                f"{file_length} bytes, file has {len(view)}")
        spans = fields[8:]
        sections: dict[str, memoryview] = {}
        for i, section in enumerate(SECTIONS):
            start, size = spans[2 * i], spans[2 * i + 1]
            data = view[start:start + size]
            if len(data) != size or (size % struct.calcsize(section.kind)):
                raise IndexError_(
                    f"segment {self.path} has a corrupt header (section "
                    f"{section.name} out of bounds)")
            sections[section.name] = (data if section.kind == "B"
                                      else data.cast(section.kind))
        #: Every section's data, by name (what the verifier walks).
        self.sections = sections
        self._tstr_off = sections["tstr_off"]
        self._term_bytes = sections["term_bytes"]
        self._post_off = sections["post_off"]
        self._pos_off = sections["pos_off"]
        self._max_freqs = sections["max_freqs"]
        self._doc_ids = sections["doc_ids"]
        self._freqs = sections["freqs"]
        self._positions = sections["positions"]
        self._norm_ids = sections["norm_ids"]
        self._norms = sections["norms"]
        self._doc_off = sections["doc_off"]
        self._doc_blob = sections["doc_blob"]
        self._pay_off = sections["pay_off"]
        self._pay_blob = sections["pay_blob"]
        self._rec_name_off = sections["rec_name_off"]
        self._rec_names = sections["rec_names"]
        self._rec_shape_off = sections["rec_shape_off"]
        self._rec_shape = sections["rec_shape"]
        #: The name dictionary every record of this segment reads
        #: through; decoded, and its analysis memoised, on first use.
        #: Its decoder holds the two sections, not the segment, so no
        #: reference cycle keeps a retired segment mapped.
        self.names = NameTable(partial(_decode_strings,
                                       sections["name_off"],
                                       sections["name_bytes"]))
        self._view = view
        self._doc_cache: dict[int, Document] = {}

    # -- lifecycle ---------------------------------------------------------

    @property
    def size_bytes(self) -> int:
        """The mapped file length."""
        return len(self._view)

    @property
    def max_doc_id(self) -> int:
        return self._norm_ids[-1] if self.document_count else -1

    def close(self) -> None:
        """Unmap now, for a segment no view holds (a standalone reader);
        best-effort while slices of it are still alive."""
        try:
            self._view.release()
            self._mmap.close()
        except BufferError:
            pass  # exported slices keep the map alive; GC will finish

    # -- term and name dictionaries ----------------------------------------

    def _term_at(self, ordinal: int) -> str:
        start, end = self._tstr_off[ordinal], self._tstr_off[ordinal + 1]
        return str(self._term_bytes[start:end], "utf-8")

    def _term_ordinal(self, term: str) -> int | None:
        blob = term.encode("utf-8")
        lo, hi = 0, self.term_count
        tstr, bytes_ = self._tstr_off, self._term_bytes
        while lo < hi:
            mid = (lo + hi) // 2
            if bytes(bytes_[tstr[mid]:tstr[mid + 1]]) < blob:
                lo = mid + 1
            else:
                hi = mid
        if lo < self.term_count \
                and bytes(bytes_[tstr[lo]:tstr[lo + 1]]) == blob:
            return lo
        return None

    def vocabulary(self) -> Iterator[str]:
        """The term dictionary in ordinal (= sorted) order, decoded in
        one pass over a single copy of the term bytes."""
        tstr, blob = self._tstr_off, bytes(self._term_bytes)
        return (str(blob[tstr[i]:tstr[i + 1]], "utf-8")
                for i in range(self.term_count))

    # -- postings ----------------------------------------------------------

    def postings(self, term: str) -> SegmentPostings | None:
        ordinal = self._term_ordinal(term)
        if ordinal is None:
            return None
        return self._postings_at(ordinal, term)

    def _postings_at(self, ordinal: int, term: str) -> SegmentPostings:
        p0, p1 = self._post_off[ordinal], self._post_off[ordinal + 1]
        c0, c1 = self._pos_off[ordinal], self._pos_off[ordinal + 1]
        return SegmentPostings(
            term,
            self._doc_ids[p0:p1],
            self._freqs[p0:p1],
            self._positions[c0:c1],
            self._max_freqs[ordinal],
            c1 - c0,
        )

    def ordered_postings(self, terms: list[str]
                         ) -> Iterator[tuple[str, SegmentPostings]]:
        """Every ``(term, postings)`` pair in dictionary order — the
        merge's sequential walk, with no dictionary search.  ``terms``
        is this segment's :meth:`vocabulary`, decoded by the caller."""
        for ordinal, term in enumerate(terms):
            yield term, self._postings_at(ordinal, term)

    def document_frequency(self, term: str) -> int:
        ordinal = self._term_ordinal(term)
        if ordinal is None:
            return 0
        return self._post_off[ordinal + 1] - self._post_off[ordinal]

    # -- documents and norms ----------------------------------------------

    def row(self, doc_id: int) -> int | None:
        """The document-store row of ``doc_id`` (one binary search), or
        None; every per-document read of a view goes through it once."""
        ids = self._norm_ids
        i = bisect.bisect_left(ids, doc_id)
        if i < len(ids) and ids[i] == doc_id:
            return i
        return None

    def has_document(self, doc_id: int) -> bool:
        return doc_id in self._doc_cache or self.row(doc_id) is not None

    def norm(self, doc_id: int) -> float:
        i = self.row(doc_id)
        if i is None:
            raise IndexError_(f"document {doc_id} is not indexed")
        return self._norms[i]

    def norm_at(self, i: int) -> float:
        return self._norms[i]

    def norm_items(self) -> Iterator[tuple[int, float]]:
        """(doc_id, norm) pairs in doc-id order (snapshot building)."""
        return zip(self._norm_ids, self._norms)

    def doc_ids(self) -> Iterator[int]:
        return iter(self._norm_ids)

    def document(self, doc_id: int) -> Document:
        # Result pages read the same hot documents on every query; a
        # bounded cache keyed by doc id keeps warm-path lookups (and
        # has_document) at parity with the in-memory index without
        # materializing the corpus.
        document = self._doc_cache.get(doc_id)
        if document is not None:
            return document
        i = self.row(doc_id)
        if i is None:
            raise IndexError_(f"document {doc_id} is not indexed")
        return self.document_at(i)

    def document_at(self, i: int) -> Document:
        """The document in row ``i`` (see :meth:`row`), cached."""
        doc_id = self._norm_ids[i]
        document = self._doc_cache.get(doc_id)
        if document is None:
            document = self._decode_document(i)
            if len(self._doc_cache) >= _DOC_CACHE_MAX:
                self._doc_cache.clear()
            self._doc_cache[doc_id] = document
        return document

    def _record(self, i: int
                ) -> tuple[str, str, array, memoryview, MatchRecord | None]:
        """Title, summary, term-ordinal stream, payload view and match
        record of document ``i``."""
        blob = self._doc_blob
        offset = self._doc_off[i]
        title_len, summary_len, n_terms = _DOC_REC.unpack_from(blob, offset)
        offset += _DOC_REC.size
        title = str(blob[offset:offset + title_len], "utf-8")
        offset += title_len
        summary = str(blob[offset:offset + summary_len], "utf-8")
        offset += summary_len
        stream = array("i")
        stream.frombytes(blob[offset:offset + 4 * n_terms])
        payload = self._pay_blob[self._pay_off[i]:self._pay_off[i + 1]]
        s0, s1 = self._rec_shape_off[i], self._rec_shape_off[i + 1]
        record = None
        if s1 > s0:
            n0, n1 = self._rec_name_off[i], self._rec_name_off[i + 1]
            record = MatchRecord(self.names, self._rec_names[n0:n1],
                                 self._rec_shape[s0:s1])
        return title, summary, stream, payload, record

    def _decode_document(self, i: int) -> Document:
        title, summary, stream, payload, record = self._record(i)
        return Document(
            doc_id=self._norm_ids[i],
            title=title,
            summary=summary,
            terms=[self._term_at(ordinal) for ordinal in stream],
            payload=payload,
            record=record,
        )

    def live_documents(self, dead: set[int],
                       terms: list[str]) -> Iterator[Document]:
        """Every document not in ``dead``, in doc-id order — the
        merge's read.  Each ordinal stream maps through ``terms`` (this
        segment's :meth:`vocabulary`, decoded by the caller), and each
        record keeps this segment's name dictionary, which the writer
        re-interns the same way; the decoded-document cache is neither
        read nor filled."""
        for i, doc_id in enumerate(self._norm_ids):
            if doc_id not in dead:
                title, summary, stream, payload, record = self._record(i)
                yield Document(doc_id, title, summary,
                               list(map(terms.__getitem__, stream)),
                               payload, record)

    def documents(self) -> Iterator[Document]:
        return (self.document_at(i) for i in range(self.document_count))

    def __len__(self) -> int:
        return self.document_count

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"MmapSegment({self.path.name}, docs={self.document_count}, "
                f"terms={self.term_count})")
