"""The on-disk section container, and the columnar graph snapshot written in it.

The container (:func:`write_container` / :class:`Container`) holds two file
kinds: graph snapshots, and the result cache's entries
(:mod:`repro.olap.cache`), whose header names ``kind``.  A snapshot is a
**single file** holding everything needed to re-open an AnS instance without
re-parsing or re-encoding it:

* the fact columns — subject / predicate / object term ids as three
  contiguous ``int64`` arrays, globally sorted by ``(p, s, o)`` so that each
  predicate's triples form one contiguous, subject-sorted slice;
* the per-predicate **object sort order** — the same triples re-sorted by
  ``(p, o, s)``, stored as two aligned arrays (object keys, subject values),
  so both sort orders of :class:`repro.bgp.evaluator.ColumnarTripleIndex`
  are zero-copy slices of the file;
* the term dictionary — a typed-term table (one kind byte per term), an
  offset index and a UTF-8 string blob, stored in id order so the dense
  first-seen ids survive the round trip, plus a lexicographic permutation
  for binary-search term lookup without decoding;
* summary statistics (per-predicate counts, distinct subject/object counts,
  per-class counts) in the header, so a mapped graph can serve
  :class:`~repro.rdf.statistics.GraphStatistics` without a full scan.

File layout::

    offset 0   magic          b"REPROSNP"                  (8 bytes)
    offset 8   format version uint32 little-endian          (4 bytes)
    offset 12  header length  uint64 little-endian          (8 bytes)
    offset 20  header         UTF-8 JSON table of contents
    ...        zero padding to the next 8-byte boundary
    ...        sections       raw little-endian arrays, each 8-byte aligned

The header's ``sections`` table maps each section name to ``[relative
offset, element count, dtype]`` (``int64`` or ``uint8``); offsets are
relative to the 8-byte-aligned payload base, so readers never need to
re-measure the header.  Opening a snapshot reads **only** the fixed fields
and the header — array sections are attached as :func:`numpy.memmap` views
and fault in page by page on first touch, which is what makes cold starts
O(header) instead of O(instance).

Graph snapshots need numpy (the ``[fast]`` extra): without it both saving
and loading raise :class:`~repro.errors.ConfigurationError` naming the
extra — a clear degradation, never a crash mid-file.  The container itself
needs none: :meth:`Container.read_sections` reads with the stdlib.
"""

from __future__ import annotations

import json
import os
import struct
import threading
from array import array
from decimal import Decimal
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import (
    ConfigurationError,
    SnapshotFormatError,
    SnapshotVersionError,
)
from repro.rdf.namespaces import RDF
from repro.rdf.ntriples import _parse_term
from repro.rdf.terms import IRI, BlankNode, Literal, Term

try:  # numpy is the optional [fast] extra
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    _np = None

__all__ = [
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_FORMAT_VERSION",
    "Container",
    "Snapshot",
    "write_container",
    "record_table",
    "decode_records",
    "save_snapshot",
    "load_snapshot",
    "open_snapshot",
]

#: The 8-byte magic prefix identifying a repro snapshot file.
SNAPSHOT_MAGIC = b"REPROSNP"

#: Format version written by this build; readers reject any other version.
SNAPSHOT_FORMAT_VERSION = 1

_FIXED_HEADER = struct.Struct("<8sIQ")  # magic, format version, header length

#: Section dtype → its stdlib ``array`` / ``memoryview`` format.
_FORMATS = {"int64": "q", "uint8": "B"}
_DTYPES = {code: dtype for dtype, code in _FORMATS.items()}

#: Kind bytes of the typed-value table: the three term kinds, then the
#: plain values an operator derives (a ROLL-UP parent, an aggregated measure).
_KIND_IRI = 0
_KIND_BLANK = 1
_KIND_LITERAL = 2
_KIND_STR = 3
_KIND_JSON = 4  # int, float, bool or None, as its JSON text
_KIND_DECIMAL = 5

_SNAPSHOT_EXTRA_HINT = (
    "columnar snapshots require numpy; install the [fast] extra "
    "(pip install 'repro-rdf-olap[fast]') or keep the instance on the heap"
)


def _require_numpy(action: str) -> None:
    if _np is None:
        raise ConfigurationError(f"cannot {action}: {_SNAPSHOT_EXTRA_HINT}")


def _align8(offset: int) -> int:
    return (offset + 7) & ~7


def term_record(term: Term) -> Tuple[int, str]:
    """The ``(kind, text)`` record of one term — shared by writer and lookup.

    IRIs store their value, blank nodes their label, literals their full
    N-Triples form (injective over (lexical, datatype, language)).  The
    sort key of the lexicographic permutation is ``(kind, utf-8 bytes)``.
    A plain value (a string, number, bool, None or Decimal) records under
    its own kind, so a cache entry can store what ROLL-UP and γ derive.
    """
    if isinstance(term, IRI):
        return _KIND_IRI, term.value
    if isinstance(term, BlankNode):
        return _KIND_BLANK, term.label
    if isinstance(term, Literal):
        return _KIND_LITERAL, term.n3()
    if isinstance(term, str):
        return _KIND_STR, term
    if term is None or isinstance(term, (bool, int, float)):
        return _KIND_JSON, json.dumps(term)
    if isinstance(term, Decimal):
        return _KIND_DECIMAL, str(term)
    raise SnapshotFormatError(f"cannot serialize {term!r} into a value record")


def decode_term_record(kind: int, text: str) -> Term:
    """Rebuild a term (or plain value) from its ``(kind, text)`` record."""
    if kind == _KIND_IRI:
        return IRI(text)
    if kind == _KIND_BLANK:
        return BlankNode(text)
    if kind == _KIND_LITERAL:
        term, _ = _parse_term(text, 0, 0)
        return term
    if kind == _KIND_STR:
        return text
    if kind == _KIND_JSON:
        return json.loads(text)
    if kind == _KIND_DECIMAL:
        return Decimal(text)
    raise SnapshotFormatError(f"unknown term kind byte {kind}")


def record_table(values: Iterable) -> Tuple[array, array, array, List[bytes]]:
    """The typed-value table of ``values``: kind bytes, ``len + 1`` int64
    offsets and the UTF-8 blob (three sections), plus each record's bytes."""
    kinds, offsets, texts = array("B"), array("q", [0]), []
    for value in values:
        kind, text = term_record(value)
        kinds.append(kind)
        texts.append(text.encode("utf-8"))
        offsets.append(offsets[-1] + len(texts[-1]))
    return kinds, offsets, array("B", b"".join(texts)), texts


def decode_records(kinds, offsets, blob) -> list:
    """The values of a typed-value table (:func:`record_table`'s sections,
    as numpy arrays or stdlib buffers), in order."""
    blob, offsets = bytes(blob), offsets.tolist()
    return [
        decode_term_record(kind, blob[offsets[index] : offsets[index + 1]].decode("utf-8"))
        for index, kind in enumerate(kinds.tolist())
    ]


# ---------------------------------------------------------------------------
# the container: writer
# ---------------------------------------------------------------------------


def write_container(path: str, header: Dict[str, object], sections: Dict[str, object]) -> None:
    """Write one container file: the fixed fields, ``header`` plus the
    sections' table of contents as JSON, then each section 8-byte aligned.

    A section is an int64 or uint8 numpy array or ``array.array``.  The
    write is atomic (temp file + rename), so a crash mid-write never leaves
    a half-written file behind.
    """
    toc: Dict[str, list] = {}
    cursor = 0
    for name, section in sections.items():
        cursor = _align8(cursor)
        dtype = _DTYPES[section.typecode] if isinstance(section, array) else str(section.dtype)
        toc[name] = [cursor, int(len(section)), dtype]
        cursor += len(section) * section.itemsize
    header_bytes = json.dumps({**header, "sections": toc}, sort_keys=True).encode("utf-8")

    temp_path = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
    try:
        with open(temp_path, "wb") as handle:
            handle.write(
                _FIXED_HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_FORMAT_VERSION, len(header_bytes))
            )
            handle.write(header_bytes)
            payload_base = _align8(handle.tell())
            for name, section in sections.items():
                handle.write(b"\0" * (payload_base + toc[name][0] - handle.tell()))
                handle.write(section.tobytes())
        os.replace(temp_path, path)
    finally:
        if os.path.exists(temp_path):  # pragma: no cover - crash-path cleanup
            os.unlink(temp_path)


# ---------------------------------------------------------------------------
# graph snapshot: writer
# ---------------------------------------------------------------------------


def save_snapshot(graph, path: str) -> None:
    """Serialize ``graph`` into a single snapshot file at ``path``.

    Written through :func:`write_container`, so atomically.  Requires
    numpy; see the module docstring for the file layout.
    """
    _require_numpy("save a snapshot")
    dictionary = graph.dictionary
    term_count = len(dictionary)
    triple_count = len(graph)

    # -- term table: kinds, offsets, blob, lexicographic permutation -------
    kinds, offsets, blob, texts = record_table(dictionary.terms())
    term_sort = array("q", sorted(range(term_count), key=lambda i: (kinds[i], texts[i])))

    # -- fact columns in both per-predicate sort orders --------------------
    # Materialize: heap graphs hand back their triple set, mapped graphs a
    # one-shot iterator over their columns — we iterate three times below.
    encoded = list(graph.encoded_triples())
    s = _np.fromiter((t[0] for t in encoded), dtype=_np.int64, count=triple_count)
    p = _np.fromiter((t[1] for t in encoded), dtype=_np.int64, count=triple_count)
    o = _np.fromiter((t[2] for t in encoded), dtype=_np.int64, count=triple_count)
    subject_order = _np.lexsort((o, s, p))  # primary p, then s, then o
    s_col, p_col, o_col = s[subject_order], p[subject_order], o[subject_order]
    object_order = _np.lexsort((s, o, p))  # primary p, then o, then s
    obj_keys, obj_vals = o[object_order], s[object_order]

    if triple_count:
        pred_ids, pred_starts = _np.unique(p_col, return_index=True)
        pred_offsets = _np.append(pred_starts, triple_count).astype(_np.int64)
    else:
        pred_ids = _np.empty(0, dtype=_np.int64)
        pred_offsets = _np.zeros(1, dtype=_np.int64)

    statistics = _summarize(
        pred_ids, pred_offsets, s_col, obj_keys, dictionary, triple_count
    )

    sections = {
        "spo_s": s_col,
        "spo_p": p_col,
        "spo_o": o_col,
        "obj_keys": obj_keys,
        "obj_vals": obj_vals,
        "pred_ids": pred_ids,
        "pred_offsets": pred_offsets,
        "term_kinds": kinds,
        "term_offsets": offsets,
        "term_blob": blob,
        "term_sort": term_sort,
    }

    header = {
        "graph_version": graph.version,
        "name": graph.name,
        "triple_count": triple_count,
        "term_count": term_count,
        "change_log_limit": graph.change_log_limit,
        "statistics": statistics,
    }
    write_container(path, header, sections)


def _summarize(pred_ids, pred_offsets, s_col, obj_keys, dictionary, triple_count):
    """Per-predicate and per-class summary counts stored in the header.

    Computed from the sorted columns with run-boundary counting, so a mapped
    graph can serve :class:`~repro.rdf.statistics.GraphStatistics` without
    ever scanning (and decoding) the full instance.
    """
    predicates = []
    for index in range(len(pred_ids)):
        lo = int(pred_offsets[index])
        hi = int(pred_offsets[index + 1])
        count = hi - lo
        distinct_subjects = int(1 + (_np.diff(s_col[lo:hi]) != 0).sum()) if count else 0
        objects = obj_keys[lo:hi]
        distinct_objects = int(1 + (_np.diff(objects) != 0).sum()) if count else 0
        predicates.append(
            [int(pred_ids[index]), count, distinct_subjects, distinct_objects]
        )

    classes = []
    type_id = dictionary.lookup(RDF.term("type"))
    if type_id is not None:
        position = int(_np.searchsorted(pred_ids, type_id))
        if position < len(pred_ids) and int(pred_ids[position]) == type_id:
            lo = int(pred_offsets[position])
            hi = int(pred_offsets[position + 1])
            values, counts = _np.unique(obj_keys[lo:hi], return_counts=True)
            classes = [[int(v), int(c)] for v, c in zip(values, counts)]

    return {
        "triple_count": triple_count,
        "predicates": predicates,
        "classes": classes,
    }


# ---------------------------------------------------------------------------
# the container: reader
# ---------------------------------------------------------------------------


class Container:
    """An opened container file: validated fixed fields, header and sections.

    Construction reads and validates only the fixed fields and the JSON
    header: the magic, the format version, the header's ``kind`` (None for
    a graph snapshot) and that every section lies inside the file — each
    failure a :class:`~repro.errors.SnapshotFormatError` (or
    :class:`~repro.errors.SnapshotVersionError`).
    """

    __slots__ = ("path", "header", "_payload_base", "_file_size")

    def __init__(self, path: str, kind: Optional[str] = None):
        self.path = path
        try:
            self._file_size = os.path.getsize(path)
            with open(path, "rb") as handle:
                fixed = handle.read(_FIXED_HEADER.size)
                if len(fixed) < _FIXED_HEADER.size:
                    raise SnapshotFormatError(
                        f"{path!r} is truncated: {len(fixed)} bytes, expected at "
                        f"least a {_FIXED_HEADER.size}-byte fixed header"
                    )
                magic, version, header_length = _FIXED_HEADER.unpack(fixed)
                if magic != SNAPSHOT_MAGIC:
                    raise SnapshotFormatError(
                        f"{path!r} is not a repro snapshot (bad magic {magic!r})"
                    )
                if version != SNAPSHOT_FORMAT_VERSION:
                    raise SnapshotVersionError(
                        f"{path!r} has snapshot format version {version}; this "
                        f"build reads version {SNAPSHOT_FORMAT_VERSION}"
                    )
                if _FIXED_HEADER.size + header_length > self._file_size:
                    raise SnapshotFormatError(
                        f"{path!r} is truncated: header claims {header_length} "
                        f"bytes but the file holds {self._file_size}"
                    )
                header_bytes = handle.read(header_length)
        except OSError as exc:
            raise SnapshotFormatError(f"cannot read snapshot {path!r}: {exc}") from exc
        try:
            self.header = json.loads(header_bytes.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise SnapshotFormatError(
                f"{path!r} has a corrupt header table of contents: {exc}"
            ) from exc
        self._payload_base = _align8(_FIXED_HEADER.size + header_length)
        found = self.header.get("kind") if isinstance(self.header, dict) else "malformed"
        if found != kind:
            raise SnapshotFormatError(
                f"{path!r} is a {found or 'graph snapshot'} file, not a {kind or 'graph snapshot'}"
            )
        self._validate_sections()

    def _validate_sections(self) -> None:
        sections = self.header.get("sections")
        if not isinstance(sections, dict):
            raise SnapshotFormatError(
                f"{self.path!r} header lacks a sections table of contents"
            )
        for name, entry in sections.items():
            try:
                offset, length, dtype = entry
                nbytes = int(length) * struct.calcsize(_FORMATS[dtype])
            except (TypeError, ValueError, KeyError) as exc:
                raise SnapshotFormatError(
                    f"{self.path!r}: malformed TOC entry for section {name!r}: {entry!r}"
                ) from exc
            if self._payload_base + int(offset) + nbytes > self._file_size:
                raise SnapshotFormatError(
                    f"{self.path!r} is truncated: section {name!r} ends past "
                    f"the end of the file"
                )

    def read_sections(self) -> Dict[str, memoryview]:
        """Every section as a stdlib buffer of its dtype's format, from one
        read of the payload (no numpy)."""
        try:
            with open(self.path, "rb") as handle:
                handle.seek(self._payload_base)
                payload = memoryview(handle.read())
        except OSError as exc:
            raise SnapshotFormatError(f"cannot read {self.path!r}: {exc}") from exc
        sections = {}
        for name, (offset, length, dtype) in self.header["sections"].items():
            end = int(offset) + int(length) * struct.calcsize(_FORMATS[dtype])
            sections[name] = payload[int(offset) : end].cast(_FORMATS[dtype])
        return sections


# ---------------------------------------------------------------------------
# graph snapshot: reader
# ---------------------------------------------------------------------------


class Snapshot(Container):
    """An opened graph snapshot: a :class:`Container` whose sections attach
    lazily, each a read-only :func:`numpy.memmap` view (pages fault in on
    demand)."""

    __slots__ = ("_cache",)

    def __init__(self, path: str):
        _require_numpy(f"open snapshot {path!r}")
        super().__init__(path)
        self._cache: Dict[str, object] = {}

    def section(self, name: str):
        """A read-only array over one memory-mapped section (cached per snapshot)."""
        found = self._cache.get(name)
        if found is None:
            entry = self.header["sections"].get(name)
            if entry is None:
                raise SnapshotFormatError(
                    f"{self.path!r} has no section {name!r} (incomplete snapshot?)"
                )
            offset, length, dtype = entry
            # The base-class view of the map (which stays alive through
            # ``.base``): slices and scalar reads of an ``np.memmap`` instance
            # go through its Python-level ``__getitem__`` / ``__array_finalize__``.
            found = self._cache[name] = _np.asarray(
                _np.memmap(
                    self.path,
                    dtype=_np.dtype(dtype),
                    mode="r",
                    offset=self._payload_base + int(offset),
                    shape=(int(length),),
                )
            )
        return found

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Snapshot({self.path!r}, {self.header.get('triple_count')} triples, "
            f"{self.header.get('term_count')} terms)"
        )


def open_snapshot(path: str) -> Snapshot:
    """Open and validate a snapshot file (header only; no section is read)."""
    return Snapshot(path)


def load_snapshot(path: str, mmap: bool = True):
    """Load a snapshot as a graph.

    With ``mmap=True`` (default) returns a read-only
    :class:`~repro.storage.mapped.SnapshotGraph` whose fact columns, term
    dictionary and sort-order indexes are memmap views — the file's pages
    fault in on demand, so opening costs O(header) regardless of instance
    size.  With ``mmap=False`` the snapshot is decoded into a plain mutable
    heap :class:`~repro.rdf.graph.Graph` (still far cheaper than re-parsing
    the source syntax: terms are rebuilt from the typed table, triples from
    the id columns, with no dictionary re-encoding).
    """
    snapshot = open_snapshot(path)
    if mmap:
        from repro.storage.mapped import SnapshotGraph

        return SnapshotGraph(snapshot)
    return _load_heap(snapshot)


def _load_heap(snapshot: Snapshot):
    from repro.rdf.graph import Graph

    header = snapshot.header
    graph = Graph(
        name=header.get("name"),
        change_log_limit=int(header.get("change_log_limit", 4096)),
    )

    terms = decode_records(*map(snapshot.section, ("term_kinds", "term_offsets", "term_blob")))
    dictionary = graph.dictionary
    dictionary._id_to_term = terms
    dictionary._term_to_id = {term: index for index, term in enumerate(terms)}

    s_col = snapshot.section("spo_s").tolist()
    p_col = snapshot.section("spo_p").tolist()
    o_col = snapshot.section("spo_o").tolist()
    graph._triples = set(zip(s_col, p_col, o_col))
    for encoded in graph._triples:
        graph._index_add(encoded)
    graph._version = int(header["graph_version"])
    graph._log_base = graph._version
    return graph
