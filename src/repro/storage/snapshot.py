"""The on-disk columnar snapshot format: writer and low-level reader.

A snapshot is a **single file** holding everything needed to re-open an AnS
instance without re-parsing or re-encoding it:

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
offset, element count, dtype]``; offsets are relative to the 8-byte-aligned
payload base, so readers never need to re-measure the header.  Opening a
snapshot reads **only** the fixed fields and the header — array sections are
attached as :func:`numpy.memmap` views and fault in page by page on first
touch, which is what makes cold starts O(header) instead of O(instance).

numpy (the ``[fast]`` extra) is required: without it both saving and
loading raise :class:`~repro.errors.ConfigurationError` naming the extra —
a clear degradation, never a crash mid-file.
"""

from __future__ import annotations

import json
import os
import struct
from typing import Dict, Optional, Tuple

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
    "Snapshot",
    "save_snapshot",
    "load_snapshot",
    "open_snapshot",
]

#: The 8-byte magic prefix identifying a repro snapshot file.
SNAPSHOT_MAGIC = b"REPROSNP"

#: Format version written by this build; readers reject any other version.
SNAPSHOT_FORMAT_VERSION = 1

_FIXED_HEADER = struct.Struct("<8sIQ")  # magic, format version, header length

#: Term kind bytes of the typed-term table.
_KIND_IRI = 0
_KIND_BLANK = 1
_KIND_LITERAL = 2

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
    """
    if isinstance(term, IRI):
        return _KIND_IRI, term.value
    if isinstance(term, BlankNode):
        return _KIND_BLANK, term.label
    if isinstance(term, Literal):
        return _KIND_LITERAL, term.n3()
    raise SnapshotFormatError(f"cannot serialize term {term!r} into a snapshot")


def decode_term_record(kind: int, text: str) -> Term:
    """Rebuild a term from its ``(kind, text)`` record."""
    if kind == _KIND_IRI:
        return IRI(text)
    if kind == _KIND_BLANK:
        return BlankNode(text)
    if kind == _KIND_LITERAL:
        term, _ = _parse_term(text, 0, 0)
        return term
    raise SnapshotFormatError(f"unknown term kind byte {kind}")


# ---------------------------------------------------------------------------
# writer
# ---------------------------------------------------------------------------


def save_snapshot(graph, path: str) -> None:
    """Serialize ``graph`` into a single snapshot file at ``path``.

    The write is atomic (temp file + rename), so a crash mid-write never
    leaves a half-written snapshot behind.  Requires numpy; see the module
    docstring for the file layout.
    """
    _require_numpy("save a snapshot")
    dictionary = graph.dictionary
    term_count = len(dictionary)
    triple_count = len(graph)

    # -- term table: kinds, offsets, blob, lexicographic permutation -------
    kinds = _np.empty(term_count, dtype=_np.uint8)
    texts = []
    for index, term in enumerate(dictionary.terms()):
        kind, text = term_record(term)
        kinds[index] = kind
        texts.append(text.encode("utf-8"))
    offsets = _np.zeros(term_count + 1, dtype=_np.int64)
    for index, text in enumerate(texts):
        offsets[index + 1] = offsets[index] + len(text)
    blob = _np.frombuffer(b"".join(texts), dtype=_np.uint8) if texts else _np.empty(
        0, dtype=_np.uint8
    )
    term_sort = _np.asarray(
        sorted(range(term_count), key=lambda i: (kinds[i], texts[i])),
        dtype=_np.int64,
    )

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

    toc: Dict[str, list] = {}
    cursor = 0
    for name, array in sections.items():
        cursor = _align8(cursor)
        toc[name] = [cursor, int(len(array)), str(array.dtype)]
        cursor += array.nbytes

    header = {
        "graph_version": graph.version,
        "name": graph.name,
        "triple_count": triple_count,
        "term_count": term_count,
        "change_log_limit": graph.change_log_limit,
        "statistics": statistics,
        "sections": toc,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")

    temp_path = f"{path}.tmp.{os.getpid()}"
    try:
        with open(temp_path, "wb") as handle:
            handle.write(
                _FIXED_HEADER.pack(
                    SNAPSHOT_MAGIC, SNAPSHOT_FORMAT_VERSION, len(header_bytes)
                )
            )
            handle.write(header_bytes)
            payload_base = _align8(handle.tell())
            handle.write(b"\0" * (payload_base - handle.tell()))
            for name, array in sections.items():
                target = payload_base + toc[name][0]
                handle.write(b"\0" * (target - handle.tell()))
                handle.write(array.tobytes())
        os.replace(temp_path, path)
    finally:
        if os.path.exists(temp_path):  # pragma: no cover - crash-path cleanup
            os.unlink(temp_path)


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
# reader
# ---------------------------------------------------------------------------


class Snapshot:
    """An opened snapshot file: validated header + lazy section accessors.

    Construction reads and validates only the fixed fields and the JSON
    table of contents; :meth:`section` attaches one array as a read-only
    :func:`numpy.memmap` view (pages fault in on demand).
    """

    __slots__ = ("path", "header", "_payload_base", "_file_size", "_cache")

    def __init__(self, path: str):
        _require_numpy(f"open snapshot {path!r}")
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
        self._cache: Dict[str, object] = {}
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
                nbytes = int(length) * _np.dtype(dtype).itemsize
            except (TypeError, ValueError) as exc:
                raise SnapshotFormatError(
                    f"{self.path!r}: malformed TOC entry for section {name!r}: {entry!r}"
                ) from exc
            if self._payload_base + int(offset) + nbytes > self._file_size:
                raise SnapshotFormatError(
                    f"{self.path!r} is truncated: section {name!r} ends past "
                    f"the end of the file"
                )

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

    kinds = snapshot.section("term_kinds")
    offsets = snapshot.section("term_offsets")
    blob = bytes(snapshot.section("term_blob"))
    terms = [
        decode_term_record(
            int(kinds[index]),
            blob[int(offsets[index]) : int(offsets[index + 1])].decode("utf-8"),
        )
        for index in range(int(header["term_count"]))
    ]
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
