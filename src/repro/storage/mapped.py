"""Memory-mapped, read-only views over a snapshot: graph + term dictionary.

:class:`SnapshotGraph` honours the full read API of
:class:`~repro.rdf.graph.Graph` — id-level pattern matching, term-level
iteration, partitioning, statistics — but stores nothing on the heap: the
fact columns and both per-predicate sort orders are :func:`numpy.memmap`
views into the snapshot file, and pattern matching is binary search over
the sorted columns instead of nested-dict lookups.  Mutations raise
:class:`~repro.errors.ReadOnlyGraphError`.

:class:`MappedTermDictionary` resolves ids lazily: ``decode`` reads one
(kind, text) record out of the blob and caches the built term; ``lookup``
binary-searches the lexicographic permutation stored in the snapshot, so
encoding a query's handful of constants costs O(log n) string compares —
never a full dictionary materialization.

Because a mapped graph pickles as just its snapshot path
(:meth:`SnapshotGraph.__reduce__`), shipping one across a process boundary
costs O(1): the receiving process re-attaches to the same file and shares
its pages through the OS page cache.  This is what makes the parallel
executor's snapshot attach mode near-free (see :mod:`repro.olap.parallel`).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Tuple

from repro.errors import DictionaryError, ReadOnlyGraphError, SnapshotFormatError
from repro.rdf.dictionary import TermDictionary
from repro.rdf.graph import Graph
from repro.rdf.terms import Term
from repro.storage.snapshot import Snapshot, decode_records, decode_term_record, record_key, record_position
from repro.storage.snapshot import term_record

try:
    import numpy as _np
except ImportError:  # pragma: no cover - snapshot.py already gates on numpy
    _np = None

__all__ = ["MappedTermDictionary", "SnapshotGraph"]


class MappedTermDictionary(TermDictionary):
    """A read-only term dictionary backed by the snapshot's term sections.

    Ids are the same dense first-seen ids the heap dictionary assigned at
    save time; decoding is lazy and cached per id, and term -> id lookup is
    a binary search over the stored ``(kind, utf-8 text)`` sort permutation
    — no eager reverse map is ever built.
    """

    def __init__(self, snapshot: Snapshot):
        super().__init__()
        self._snapshot = snapshot
        self._kinds = snapshot.section("term_kinds")
        self._offsets = snapshot.section("term_offsets")
        self._blob = snapshot.section("term_blob")
        self._sort = snapshot.section("term_sort")
        self._count = int(snapshot.header["term_count"])
        # _id_to_term doubles as the decode cache (id -> Term, None = cold),
        # complete once _every_term has run; _term_to_id caches successful
        # lookups only.
        self._id_to_term = [None] * self._count
        self._complete = False

    def __len__(self) -> int:
        return self._count

    def __contains__(self, term: Term) -> bool:
        return self.lookup(term) is not None

    # -- decode --------------------------------------------------------

    def decode(self, term_id: int) -> Term:
        term_id = int(term_id)
        if not 0 <= term_id < self._count:
            return self._decode_derived(term_id)
        found = self._id_to_term[term_id]
        if found is None:
            kind, text = record_key(self._kinds, self._offsets, self._blob, term_id)
            found = self._id_to_term[term_id] = decode_term_record(kind, text.decode("utf-8"))
        return found

    # -- lookup (binary search over the lexicographic permutation) -----

    def lookup(self, term: Term) -> Optional[int]:
        cached = self._term_to_id.get(term)
        if cached is not None:
            return cached
        try:
            kind, text = term_record(term)
        except SnapshotFormatError:  # a value with no record form is no term here
            return None
        probe = (kind, text.encode("utf-8"))
        table = (self._kinds, self._offsets, self._blob)
        position = record_position(*table, self._sort, probe)
        if position < self._count:
            candidate = int(self._sort[position])
            if record_key(*table, candidate) == probe:
                self._term_to_id[term] = candidate
                return candidate
        return None

    def encode(self, term: Term) -> int:
        found = self.lookup(term)
        if found is None:
            raise DictionaryError(
                f"snapshot dictionaries are read-only: cannot assign a fresh id "
                f"to {term.n3()}"
            )
        return found

    def encode_existing(self, term: Term) -> int:
        found = self.lookup(term)
        if found is None:
            raise DictionaryError(f"term not in dictionary: {term.n3()}")
        return found

    # -- iteration / copy ----------------------------------------------

    def _every_term(self) -> list:
        """Every term in id order, decoded in one pass over the records on
        first use and kept as the decode cache (the same interned terms)."""
        if not self._complete:
            self._id_to_term = decode_records(self._kinds, self._offsets, self._blob)
            self._complete = True
        return self._id_to_term

    def items(self) -> Iterator[Tuple[Term, int]]:
        return zip(self._every_term(), range(self._count))

    def terms(self) -> Iterator[Term]:
        return iter(self._every_term())

    def copy(self) -> TermDictionary:
        """Materialize a plain mutable heap dictionary (decodes every term)."""
        clone = TermDictionary()
        clone._id_to_term = list(self._every_term())
        clone._term_to_id = {term: i for i, term in enumerate(clone._id_to_term)}
        return clone

    def __repr__(self) -> str:  # pragma: no cover
        return f"MappedTermDictionary({self._count} terms, {self._snapshot.path!r})"


def _reopen_snapshot_graph(path: str) -> "SnapshotGraph":
    """Unpickling hook: a mapped graph travels as just its snapshot path."""
    return SnapshotGraph(Snapshot(path))


class SnapshotGraph(Graph):
    """A read-only :class:`~repro.rdf.graph.Graph` view over a snapshot file.

    All triple data lives in the snapshot's memmap sections; pattern
    matching binary-searches the ``(p, s, o)``- and ``(p, o, s)``-sorted
    columns.  The graph's :attr:`version` is frozen at the value recorded
    when the snapshot was saved, and every mutation raises
    :class:`~repro.errors.ReadOnlyGraphError`.
    """

    def __init__(self, snapshot: Snapshot):
        super().__init__()
        header = snapshot.header
        self._snapshot = snapshot
        self.name = header.get("name")
        self._dictionary = MappedTermDictionary(snapshot)
        self._triple_count = int(header["triple_count"])
        self._s = snapshot.section("spo_s")
        self._p = snapshot.section("spo_p")
        self._o = snapshot.section("spo_o")
        self._obj_keys = snapshot.section("obj_keys")
        self._obj_vals = snapshot.section("obj_vals")
        # Per-predicate slice bounds: O(#predicates), the only eager index.
        pred_ids = snapshot.section("pred_ids")
        pred_offsets = snapshot.section("pred_offsets")
        self._pred_slices: Dict[int, Tuple[int, int]] = {
            int(pred_ids[i]): (int(pred_offsets[i]), int(pred_offsets[i + 1]))
            for i in range(len(pred_ids))
        }
        self._version = int(header["graph_version"])
        # deltas_since can only answer "no change" for the frozen version
        # itself; any older stamp gets the honest full-invalidation None.
        self._log_base = self._version

    # -- identity / pickling -------------------------------------------

    @property
    def snapshot_path(self) -> str:
        """The path of the backing snapshot file (the attach address)."""
        return self._snapshot.path

    @property
    def snapshot(self) -> Snapshot:
        return self._snapshot

    def __reduce__(self):
        return (_reopen_snapshot_graph, (self._snapshot.path,))

    # -- mutations: refused --------------------------------------------

    def _read_only(self, action: str):
        raise ReadOnlyGraphError(
            f"cannot {action} a memory-mapped snapshot graph "
            f"({self._snapshot.path!r}); load with mmap=False for a mutable copy"
        )

    def add(self, triple) -> bool:
        self._read_only("add triples to")

    def add_all(self, triples: Iterable) -> int:
        self._read_only("add triples to")

    def remove(self, triple) -> bool:
        self._read_only("remove triples from")

    def clear(self) -> None:
        self._read_only("clear")

    # -- iteration ----------------------------------------------------

    def encoded_triples(self):
        """All encoded triples, in ``(p, s, o)`` order (read-only)."""
        return zip(self._s.tolist(), self._p.tolist(), self._o.tolist())

    def __iter__(self):
        from repro.rdf.triples import Triple

        decode = self._dictionary.decode
        for s, p, o in self.encoded_triples():
            yield Triple(decode(s), decode(p), decode(o))

    # -- id-level pattern matching -------------------------------------

    def _slice(self, p: int) -> Optional[Tuple[int, int]]:
        return self._pred_slices.get(p)

    @staticmethod
    def _span(sorted_array, lo: int, hi: int, value: int) -> Tuple[int, int]:
        """The sub-range of ``sorted_array[lo:hi]`` equal to ``value``."""
        window = sorted_array[lo:hi]
        left = int(_np.searchsorted(window, value, side="left"))
        right = int(_np.searchsorted(window, value, side="right"))
        return lo + left, lo + right

    def match_ids(self, s, p, o):
        if s == -1 or p == -1 or o == -1:
            return
        if p is not None:
            yield from self._match_with_predicate(s, p, o)
            return
        if s is None and o is None:
            for triple in self.encoded_triples():
                yield triple
            return
        # Variable predicate with a bound subject and/or object: a binary
        # search per predicate slice (predicates are few in AnS instances).
        for predicate in self._pred_slices:
            yield from self._match_with_predicate(s, predicate, o)

    def _match_with_predicate(self, s, p: int, o):
        bounds = self._slice(p)
        if bounds is None:
            return
        lo, hi = bounds
        if s is not None:
            lo, hi = self._span(self._s, lo, hi, s)
            if lo == hi:
                return
            if o is not None:
                left, right = self._span(self._o, lo, hi, o)
                if left < right:
                    yield (s, p, o)
                return
            for value in self._o[lo:hi].tolist():
                yield (s, p, value)
            return
        if o is not None:
            left, right = self._span(self._obj_keys, lo, hi, o)
            for value in self._obj_vals[left:right].tolist():
                yield (value, p, o)
            return
        subjects = self._s[lo:hi].tolist()
        objects = self._o[lo:hi].tolist()
        for subject, object_ in zip(subjects, objects):
            yield (subject, p, object_)

    def match_single_ids(self, s, p, o, position: int):
        if s == -1 or p == -1 or o == -1:
            return ()
        if position == 2 and s is not None and p is not None:
            bounds = self._slice(p)
            if bounds is None:
                return ()
            lo, hi = self._span(self._s, bounds[0], bounds[1], s)
            return self._o[lo:hi].tolist()
        if position == 0 and p is not None and o is not None:
            bounds = self._slice(p)
            if bounds is None:
                return ()
            lo, hi = self._span(self._obj_keys, bounds[0], bounds[1], o)
            return self._obj_vals[lo:hi].tolist()
        return (triple[position] for triple in self.match_ids(s, p, o))

    def count_ids(self, s, p, o) -> int:
        if s == -1 or p == -1 or o == -1:
            return 0
        if s is None and p is None and o is None:
            return self._triple_count
        if p is not None:
            bounds = self._slice(p)
            if bounds is None:
                return 0
            lo, hi = bounds
            if s is None and o is None:
                return hi - lo
            if s is not None and o is None:
                left, right = self._span(self._s, lo, hi, s)
                return right - left
            if o is not None and s is None:
                left, right = self._span(self._obj_keys, lo, hi, o)
                return right - left
            left, right = self._span(self._s, lo, hi, s)
            if left == right:
                return 0
            inner = self._span(self._o, left, right, o)
            return inner[1] - inner[0]
        if s is not None and o is None:
            return sum(
                self._span(self._s, lo, hi, s)[1] - self._span(self._s, lo, hi, s)[0]
                for lo, hi in self._pred_slices.values()
            )
        if o is not None and s is None:
            return sum(
                self._span(self._obj_keys, lo, hi, o)[1]
                - self._span(self._obj_keys, lo, hi, o)[0]
                for lo, hi in self._pred_slices.values()
            )
        return sum(1 for _ in self.match_ids(s, p, o))

    # -- zero-copy columnar hooks --------------------------------------

    def columnar_predicate_pairs(self, p_id: int):
        """Zero-copy ``(subjects, objects)`` slices for one predicate."""
        return self.columnar_sorted_pairs(p_id, 0)

    def columnar_sorted_pairs(self, p_id: int, sort_position: int):
        """Zero-copy pre-sorted pair slices (both sort orders are on disk)."""
        bounds = self._slice(p_id)
        if bounds is None:
            empty = _np.empty(0, dtype=_np.int64)
            return (empty, empty)
        lo, hi = bounds
        if sort_position == 0:
            return (self._s[lo:hi], self._o[lo:hi])
        return (self._obj_keys[lo:hi], self._obj_vals[lo:hi])

    # -- statistics hook -----------------------------------------------

    def _summary_rows(self):
        """The header-stored rows: the counts :func:`save_snapshot` wrote."""
        summary = self._snapshot.header["statistics"]
        return summary["predicates"], summary["classes"]

    def __repr__(self) -> str:  # pragma: no cover
        label = f" {self.name!r}" if self.name else ""
        return (
            f"SnapshotGraph({label} {self._triple_count} triples, "
            f"mmap {self._snapshot.path!r})"
        )
