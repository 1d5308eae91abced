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
  so both sort orders of the columnar hooks
  (:meth:`repro.rdf.graph.Graph.columnar_sorted_pairs`) are zero-copy
  slices of the file;
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

The writer (:func:`save_snapshot`) merges.  Its ``predecessor``, a snapshot
the same graph saved earlier, is read once (never mapped) and patched with
``graph.deltas_since`` its version: only new ids are encoded (the dictionary
is append-only) and placed into the permutation, and fact rows are dropped
from and spliced into both sort orders, each located by binary search, so
nothing is re-sorted.  A from-scratch save, and one whose predecessor is
unreadable, past the log window, or inconsistent with the graph (terms,
last term, triple count), is the same merge into an empty file.

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
from itertools import chain, islice
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import (
    ConfigurationError,
    ReproError,
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


def record_key(kinds, offsets, blob, index: int) -> Tuple[int, bytes]:
    """The ``(kind, utf-8 bytes)`` sort key of record ``index`` of a table."""
    return int(kinds[index]), bytes(blob[int(offsets[index]) : int(offsets[index + 1])])


def record_position(kinds, offsets, blob, sort, probe: Tuple[int, bytes]) -> int:
    """How many records of the table sort before the key ``probe``: a binary
    search over its lexicographic permutation ``sort``."""
    lo, hi = 0, len(sort)
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if record_key(kinds, offsets, blob, sort[mid]) < probe else (lo, mid)
    return lo


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


def save_snapshot(graph, path: str, *, predecessor: Optional[str] = None) -> bool:
    """Serialize ``graph`` into a single snapshot file at ``path``.

    Written through :func:`write_container`, so atomically.  Requires
    numpy; see the module docstring for the file layout and the merge from
    ``predecessor``.  Returns whether the predecessor was used.
    """
    _require_numpy("save a snapshot")
    dictionary = graph.dictionary
    term_count = len(dictionary)
    triple_count = len(graph)
    found = _predecessor(graph, predecessor) if predecessor else None
    base, added, removed = found or (_empty_sections(), list(graph.encoded_triples()), ())

    # -- term table: the predecessor's records, then the new terms' --------
    known = len(base["term_kinds"])
    kinds, offsets, blob, texts = record_table(islice(dictionary.terms(), known, None))
    new = sorted(range(term_count - known), key=lambda i: (kinds[i], texts[i]))
    table = [base[name] for name in ("term_kinds", "term_offsets", "term_blob", "term_sort")]
    positions = [record_position(*table, (kinds[i], texts[i])) for i in new]

    # -- fact columns in both per-predicate sort orders --------------------
    removed, added = _id_columns(removed), _id_columns(added)
    p_col, s_col, o_col = _merge_sorted(
        (base["spo_p"], base["spo_s"], base["spo_o"]), removed[[1, 0, 2]], added[[1, 0, 2]]
    )
    _, obj_keys, obj_vals = _merge_sorted(
        (base["spo_p"], base["obj_keys"], base["obj_vals"]), removed[[1, 2, 0]], added[[1, 2, 0]]
    )
    pred_ids, pred_starts = _np.unique(p_col, return_index=True)
    pred_offsets = _np.append(pred_starts, triple_count).astype(_np.int64)
    statistics = _summarize(pred_ids, pred_offsets, s_col, obj_keys, dictionary, triple_count)

    sections = {
        "spo_s": s_col,
        "spo_p": p_col,
        "spo_o": o_col,
        "obj_keys": obj_keys,
        "obj_vals": obj_vals,
        "pred_ids": pred_ids,
        "pred_offsets": pred_offsets,
        "term_kinds": _np.concatenate((base["term_kinds"], kinds)),
        "term_offsets": _np.append(base["term_offsets"], _np.add(offsets[1:], base["term_offsets"][-1])),
        "term_blob": _np.concatenate((base["term_blob"], blob)),
        "term_sort": _np.insert(base["term_sort"], positions, _np.array(new, dtype=_np.int64) + known),
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
    return found is not None


def _predecessor(graph, path: str):
    """The sections a merge reads of snapshot ``path`` (one read of the
    file, never its mapping) and the triples ``graph`` added and removed
    since it — or None when ``path`` is not a usable predecessor."""
    try:
        container = Container(path)
        delta = graph.deltas_since(int(container.header["graph_version"]))
        count = int(container.header["triple_count"])
        if delta is None or count + len(delta.added) - len(delta.removed) != len(graph):
            return None
        sections = container.read_sections()
        base = {name: _np.asarray(sections[name]) for name in _empty_sections()}
        last = len(base["term_kinds"]) - 1  # the graph must hold the last term under that id
        if last >= 0:
            kind, text = record_key(base["term_kinds"], base["term_offsets"], base["term_blob"], last)
            if graph.dictionary.lookup(decode_term_record(kind, text.decode("utf-8"))) != last:
                return None
    except (ReproError, LookupError, TypeError, ValueError):  # unreadable or malformed
        return None
    return base, delta.added, delta.removed


def _empty_sections():
    """The sections a merge reads, of an empty snapshot."""
    ids, no_bytes = _np.empty(0, _np.int64), _np.empty(0, _np.uint8)
    empty = dict.fromkeys(("spo_s", "spo_p", "spo_o", "obj_keys", "obj_vals", "term_sort"), ids)
    return dict(empty, term_kinds=no_bytes, term_offsets=_np.zeros(1, _np.int64), term_blob=no_bytes)


def _id_columns(triples):
    """The ``(s, p, o)`` int64 rows of encoded triples."""
    flat = _np.fromiter(chain.from_iterable(triples), dtype=_np.int64, count=3 * len(triples))
    return flat.reshape(-1, 3).T


def _merge_sorted(base, removed, added):
    """Columns ``base``, whose rows are sorted, without the rows ``removed``
    and with the rows ``added``: each located by a binary search and
    spliced in, so ``base`` is never re-sorted."""
    keys = _row_keys(base)
    gone = _np.searchsorted(keys, _row_keys(removed))
    added = added[:, _np.lexsort(added[::-1])]
    at = _np.searchsorted(_np.delete(keys, gone), _row_keys(added))
    return [_np.insert(_np.delete(column, gone), at, extra) for column, extra in zip(base, added)]


def _row_keys(columns):
    """One big-endian 24-byte key per row, ordered bytewise like the ids."""
    return _np.stack(columns, axis=1).astype(">i8").view("S24").ravel()


def _summarize(pred_ids, pred_offsets, s_col, obj_keys, dictionary, triple_count):
    """Per-predicate and per-class summary counts stored in the header.

    Computed from the sorted columns with run-boundary counting, so a mapped
    graph can serve :class:`~repro.rdf.statistics.GraphStatistics` without
    ever scanning (and decoding) the full instance.
    """
    type_id = dictionary.lookup(RDF.term("type"))
    predicates, classes = [], []
    for index, p_id in enumerate(pred_ids.tolist()):
        lo, hi = int(pred_offsets[index]), int(pred_offsets[index + 1])
        runs = [int(1 + (_np.diff(column[lo:hi]) != 0).sum()) for column in (s_col, obj_keys)]
        predicates.append([p_id, hi - lo, *runs])
        if p_id == type_id:
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
    for encoded in zip(s_col, p_col, o_col):
        graph._index_add(encoded)
    graph._version = int(header["graph_version"])
    graph._log_base = graph._version
    return graph
