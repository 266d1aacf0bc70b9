"""The immutable on-disk segment format and its mmap reader.

One segment file holds a complete, self-contained slice of the index:
term dictionary, packed postings columns, positions, length norms, and
the document store.  The layout is columnar and 8-byte aligned so the
reader can expose every numeric section as a zero-copy
``memoryview.cast`` over the ``mmap`` — opening a segment parses a
fixed-size header and builds a handful of views; no postings are
materialized until a query touches them.

File layout (all integers little-endian)::

    header      magic, version, crc32(header), counts, section offsets
    tstr_off    (T+1) x u64   offsets into term_bytes (terms sorted)
    term_bytes  concatenated UTF-8 term strings
    post_off    (T+1) x u64   cumulative document frequency per term
    pos_off     (T+1) x u64   cumulative collection frequency per term
    max_freqs   T x i64       per-term max document frequency
    doc_ids     P x i64       postings doc-id columns, term-major
    freqs       P x i64       parallel frequency columns
    positions   C x i64       term-major, doc-major position streams
    norm_ids    D x i64       sorted doc ids
    norms       D x f64       parallel length norms
    doc_off     (D+1) x u64   offsets into doc_blob
    doc_blob    per-doc packed records (title, summary, term ordinals)
    pay_off     (D+1) x u64   offsets into pay_blob
    pay_blob    per-doc stored schema payloads, doc-id order

where ``T`` = term count, ``D`` = document count, ``P`` = total
postings (sum of df) and ``C`` = total positions (sum of cf).  A
document's token stream is stored as i32 *ordinals* into the sorted
term dictionary, so the document store shares the dictionary's string
storage and round-trips exactly.  Each document's stored schema
payload (:attr:`~repro.index.documents.Document.payload`) sits in a
section of its own, so reading titles never touches payload pages; the
reader hands a payload out as a zero-copy view of the map, and phase 2
decodes candidates from the segment it searched.

Writing goes through a temp file renamed into place
(:func:`write_segment`), so a crash mid-write never leaves a partial
segment where a reader could find it.  The header records the total
file length; the reader verifies it (plus a header CRC) and raises
:class:`~repro.errors.IndexError_` on any mismatch.
"""

from __future__ import annotations

import bisect
import mmap
import os
import struct
import zlib
from array import array
from itertools import accumulate
from pathlib import Path
from typing import Iterator

from repro.errors import IndexError_
from repro.index.documents import Document
from repro.index.postings import (Posting, position_offsets,
                                  postings_from_columns)
from repro.resilience.faults import FAULTS

MAGIC = b"SCHMRSEG"
FORMAT_VERSION = 2

#: Header: magic, version, crc32, doc_count, term_count, total_postings,
#: total_positions, file_length, then the 14 section offsets.
_SECTIONS = 14
_HEADER = struct.Struct("<8sII5Q" + "Q" * _SECTIONS)
#: CRC covers everything after the crc field itself.
_CRC_OFFSET = 16

#: Decoded-document cache bound per segment: enough to keep every
#: realistic result page warm, small enough to stay out of the way of
#: the mmap memory model (the cache is dropped wholesale when full).
_DOC_CACHE_MAX = 8192

_U64 = struct.Struct("<Q")
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


class _SectionWriter:
    """Sequential section writer: tracks offsets, pads to alignment."""

    def __init__(self, handle) -> None:
        self._handle = handle
        self._pos = _HEADER.size
        handle.write(b"\0" * _HEADER.size)
        self.offsets: list[int] = []

    def begin(self) -> None:
        pad = _align8(self._pos) - self._pos
        if pad:
            self._handle.write(b"\0" * pad)
            self._pos += pad
        self.offsets.append(self._pos)

    def write(self, data: bytes) -> None:
        self._handle.write(data)
        self._pos += len(data)

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

    # One pass over the term dictionary gathers every postings-derived
    # column, each term's as whole packed columns (no per-posting
    # objects).  Terms whose live postings are empty (every occurrence
    # tombstoned) are dropped from the dictionary.
    terms = []
    post_off = array("Q", [0])
    pos_off = array("Q", [0])
    max_freqs = array("q")
    doc_ids_buf = bytearray()
    freqs_buf = bytearray()
    positions_buf = bytearray()
    total_postings = 0
    for term, postings in _term_postings(index):
        if not postings:
            continue
        terms.append(term)
        total_postings += len(postings)
        doc_ids_buf += postings.doc_ids_array()
        freqs_buf += postings.frequencies_array()
        max_freqs.append(postings.max_frequency)
        positions_buf += postings.positions_array()
        post_off.append(total_postings)
        pos_off.append(len(positions_buf) // 8)
    total_positions = pos_off[-1]
    ordinals = {term: i for i, term in enumerate(terms)}
    term_blobs = [term.encode("utf-8") for term in terms]

    with open(tmp, "wb") as handle:
        w = _SectionWriter(handle)

        # Term dictionary: string offsets + bytes.
        w.begin()
        offset = 0
        chunks = []
        for blob in term_blobs:
            chunks.append(_U64.pack(offset))
            offset += len(blob)
        chunks.append(_U64.pack(offset))
        w.write(b"".join(chunks))
        w.begin()
        w.write(b"".join(term_blobs))

        # Per-term postings metadata: cumulative df / cf, max freq.
        w.begin()
        w.write(post_off.tobytes())
        w.begin()
        w.write(pos_off.tobytes())
        w.begin()
        w.write(max_freqs.tobytes())

        # Packed postings columns, term-major; then positions,
        # term-major and doc-major (doc order = postings order, so
        # per-doc slices are recoverable from the freqs).
        w.begin()
        w.write(doc_ids_buf)
        w.begin()
        w.write(freqs_buf)
        w.begin()
        w.write(positions_buf)
        # Crash-injection site: a failure here leaves a torn ``.tmp``
        # with real postings bytes but no norms, doc store, or header —
        # the shape a power cut mid-write produces.  The tmp is never
        # renamed, so no reader can find it; the recovery sweep unlinks
        # it on the next commit or sweep-enabled open.
        FAULTS.hit("segments.write.torn")

        # Norms + document store, doc-id order.
        documents = sorted(index.documents(), key=lambda d: d.doc_id)
        w.begin()
        w.write(array("q", (d.doc_id for d in documents)).tobytes())
        w.begin()
        w.write(array("d", (index.norm(d.doc_id) for d in documents))
                .tobytes())
        w.begin()
        doc_records = []
        offset = 0
        chunks = []
        for document in documents:
            title = document.title.encode("utf-8")
            summary = document.summary.encode("utf-8")
            stream = array("i", map(ordinals.__getitem__, document.terms))
            record = (_DOC_REC.pack(len(title), len(summary),
                                    len(document.terms))
                      + title + summary + stream.tobytes())
            doc_records.append(record)
            chunks.append(_U64.pack(offset))
            offset += len(record)
        chunks.append(_U64.pack(offset))
        w.write(b"".join(chunks))
        w.begin()
        for record in doc_records:
            w.write(record)
        # Payloads, streamed from their source (delta bytes or a merged
        # segment's map) without collecting them.
        w.begin()
        w.write(array("Q", accumulate(
            (len(d.payload) for d in documents), initial=0)).tobytes())
        w.begin()
        for document in documents:
            w.write(document.payload)

        file_length = w.length
        header = _HEADER.pack(
            MAGIC, FORMAT_VERSION, 0, len(documents), len(terms),
            total_postings, total_positions, file_length, *w.offsets)
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

    Opening parses the fixed header and casts the numeric sections to
    typed memoryviews — O(1) in the corpus size, which is what makes
    cold start milliseconds instead of a rebuild.  All lookups are
    binary searches over the mapped columns; term and document payloads
    are decoded lazily on access.

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
        if len(view) < _HEADER.size:
            raise IndexError_(f"segment {self.path} is truncated: "
                              f"no room for a header")
        fields = _HEADER.unpack_from(view, 0)
        magic, version, crc = fields[0], fields[1], fields[2]
        if magic != MAGIC:
            raise IndexError_(f"segment {self.path} has a corrupt header "
                              f"(bad magic)")
        if version != FORMAT_VERSION:
            raise IndexError_(
                f"segment {self.path} has unsupported format {version!r}; "
                f"expected {FORMAT_VERSION}")
        expected_crc = zlib.crc32(bytes(view[_CRC_OFFSET:_HEADER.size]))
        if crc != expected_crc:
            raise IndexError_(f"segment {self.path} has a corrupt header "
                              f"(checksum mismatch)")
        (self.document_count, self.term_count, self.total_postings,
         self.total_positions, file_length) = fields[3:8]
        if file_length != len(view):
            raise IndexError_(
                f"segment {self.path} is truncated: header says "
                f"{file_length} bytes, file has {len(view)}")
        offs = fields[8:8 + _SECTIONS]
        T, D = self.term_count, self.document_count
        P, C = self.total_postings, self.total_positions

        def cast(section: int, fmt: str, count: int):
            start = offs[section]
            size = struct.calcsize(fmt) * count
            return view[start:start + size].cast(fmt)

        self._tstr_off = cast(0, "Q", T + 1)
        self._term_bytes = view[offs[1]:offs[1] + self._tstr_off[T]]
        self._post_off = cast(2, "Q", T + 1)
        self._pos_off = cast(3, "Q", T + 1)
        self._max_freqs = cast(4, "q", T)
        self._doc_ids_blob = cast(5, "q", P)
        self._freqs_blob = cast(6, "q", P)
        self._positions_blob = cast(7, "q", C)
        self._norm_ids = cast(8, "q", D)
        self._norms = cast(9, "d", D)
        self._doc_off = cast(10, "Q", D + 1)
        self._doc_blob = view[offs[11]:offs[11] + self._doc_off[D]]
        self._pay_off = cast(12, "Q", D + 1)
        self._pay_blob = view[offs[13]:offs[13] + self._pay_off[D]]
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

    # -- term dictionary ---------------------------------------------------

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
            self._doc_ids_blob[p0:p1],
            self._freqs_blob[p0:p1],
            self._positions_blob[c0:c1],
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

    def _doc_index(self, doc_id: int) -> int | None:
        ids = self._norm_ids
        i = bisect.bisect_left(ids, doc_id)
        if i < len(ids) and ids[i] == doc_id:
            return i
        return None

    def has_document(self, doc_id: int) -> bool:
        return (doc_id in self._doc_cache
                or self._doc_index(doc_id) is not None)

    def norm(self, doc_id: int) -> float:
        i = self._doc_index(doc_id)
        if i is None:
            raise IndexError_(f"document {doc_id} is not indexed")
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
        i = self._doc_index(doc_id)
        if i is None:
            raise IndexError_(f"document {doc_id} is not indexed")
        return self._document_at(i)

    def _document_at(self, i: int) -> Document:
        doc_id = self._norm_ids[i]
        document = self._doc_cache.get(doc_id)
        if document is None:
            document = self._decode_document(i)
            if len(self._doc_cache) >= _DOC_CACHE_MAX:
                self._doc_cache.clear()
            self._doc_cache[doc_id] = document
        return document

    def _record(self, i: int) -> tuple[str, str, array, memoryview]:
        """Title, summary, term-ordinal stream and payload view of
        document ``i``."""
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
        return title, summary, stream, payload

    def _decode_document(self, i: int) -> Document:
        title, summary, stream, payload = self._record(i)
        return Document(
            doc_id=self._norm_ids[i],
            title=title,
            summary=summary,
            terms=[self._term_at(ordinal) for ordinal in stream],
            payload=payload,
        )

    def live_documents(self, dead: set[int],
                       terms: list[str]) -> Iterator[Document]:
        """Every document not in ``dead``, in doc-id order — the
        merge's read.  Each ordinal stream maps through ``terms`` (this
        segment's :meth:`vocabulary`, decoded by the caller); the
        decoded-document cache is neither read nor filled."""
        for i, doc_id in enumerate(self._norm_ids):
            if doc_id not in dead:
                title, summary, stream, payload = self._record(i)
                yield Document(doc_id, title, summary,
                               list(map(terms.__getitem__, stream)),
                               payload)

    def documents(self) -> Iterator[Document]:
        return (self._document_at(i) for i in range(self.document_count))

    def __len__(self) -> int:
        return self.document_count

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"MmapSegment({self.path.name}, docs={self.document_count}, "
                f"terms={self.term_count})")
