"""In-memory RDF graph (triple store) with dictionary encoding and indexes.

The store keeps every triple as integer term identifiers in two permutation
indexes, SPO and POS — the two orders a snapshot file stores, ``(p, s, o)``
and ``(p, o, s)``.  A pattern with a constant subject or predicate is an
index lookup; an object-only pattern scans POS once per predicate (the
predicates of an AnS instance are few).  The graph also owns the
per-predicate column arrays of the columnar BGP solver: built on first use
and dropped per predicate when a mutation touches it.

Three access levels are offered:

* a **term-level API** (:meth:`Graph.add`, :meth:`Graph.triples`,
  :meth:`Graph.subjects`, ...) convenient for data loading and tests;
* an **id-level API** (:meth:`Graph.match_ids`, :meth:`Graph.encode_term`,
  ...) used by the BGP evaluator's hot loops to avoid re-encoding terms;
* a **columnar API** (:meth:`Graph.columnar_predicate_pairs`, ...) of
  ``int64`` arrays for the vectorized solver.
"""

from __future__ import annotations

from collections import deque
from itertools import takewhile
from typing import Callable, Deque, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.errors import InvalidTripleError
from repro.rdf.dictionary import TermDictionary
from repro.rdf.namespaces import RDF
from repro.rdf.terms import IRI, Literal, Term, TermOrVariable, Variable
from repro.rdf.triples import Triple

__all__ = ["Graph", "GraphDelta", "GraphShard", "DEFAULT_CHANGE_LOG_LIMIT"]

#: Encoded triple: (subject id, predicate id, object id).
EncodedTriple = Tuple[int, int, int]

_RDF_TYPE = RDF.term("type")

#: Default bound on the number of retained change-log records.
DEFAULT_CHANGE_LOG_LIMIT = 4096


class GraphDelta:
    """The coalesced triple-level difference between two graph versions.

    ``added`` holds the encoded triples present at ``to_version`` but not at
    ``from_version``; ``removed`` the converse.  A triple added *and*
    removed inside the window coalesces away entirely — consumers only ever
    see the net effect, which is what incremental view maintenance needs.
    """

    __slots__ = ("added", "removed", "from_version", "to_version")

    def __init__(
        self,
        added: Tuple[EncodedTriple, ...],
        removed: Tuple[EncodedTriple, ...],
        from_version: int,
        to_version: int,
    ):
        self.added = added
        self.removed = removed
        self.from_version = from_version
        self.to_version = to_version

    def __len__(self) -> int:
        return len(self.added) + len(self.removed)

    def is_empty(self) -> bool:
        return not self.added and not self.removed

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"GraphDelta(+{len(self.added)}/-{len(self.removed)}, "
            f"v{self.from_version}->v{self.to_version})"
        )


class GraphShard:
    """One fact-id-range shard of a partitioned graph (see :meth:`Graph.partition`).

    A shard does not copy triples: it is a half-open id interval
    ``[lo, hi)`` over the shared term dictionary's id space.  Evaluating a
    rooted query "on a shard" means evaluating it on the *whole* graph with
    the fact variable restricted to ids in the interval — every fact then
    belongs to exactly one shard, so per-shard ``pres(Q)`` relations are
    disjoint and per-shard γ states merge into the exact serial answer.
    The last shard of a partition is open-ended (``hi is None``), so ids
    assigned after partitioning still map to a shard.

    Shard specs are tiny, immutable and picklable by design: they are what
    the parallel executor ships to worker processes.
    """

    __slots__ = ("index", "count", "lo", "hi")

    def __init__(self, index: int, count: int, lo: int, hi: Optional[int]):
        self.index = index
        self.count = count
        self.lo = lo
        self.hi = hi

    def contains(self, term_id: int) -> bool:
        """True when ``term_id`` falls in this shard's id range."""
        if term_id < self.lo:
            return False
        return self.hi is None or term_id < self.hi

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphShard):
            return NotImplemented
        return (self.index, self.count, self.lo, self.hi) == (
            other.index,
            other.count,
            other.lo,
            other.hi,
        )

    def __hash__(self) -> int:
        return hash((self.index, self.count, self.lo, self.hi))

    def __repr__(self) -> str:  # pragma: no cover
        upper = "∞" if self.hi is None else self.hi
        return f"GraphShard({self.index + 1}/{self.count}, ids [{self.lo}, {upper}))"


class Graph:
    """A mutable set of RDF triples with pattern-matching access paths.

    Parameters
    ----------
    triples:
        Optional iterable of :class:`Triple` (or ``(s, p, o)`` term tuples)
        to load at construction time.
    name:
        Optional human-readable name, used in ``repr`` and benchmark reports.
    change_log_limit:
        Bound on the ring-buffer change log powering :meth:`deltas_since`
        (default 4096 records).  Overflow evicts the oldest record, so the
        log always answers for the most recent ``change_log_limit``
        mutations; only versions older than that window degrade to the
        full-invalidation answer (``deltas_since`` returns None).

    Examples
    --------
    >>> from repro.rdf.terms import IRI, Literal
    >>> from repro.rdf.triples import Triple
    >>> graph = Graph()
    >>> graph.add(Triple(IRI("http://example.org/alice"),
    ...                  IRI("http://example.org/age"), Literal(30)))
    True
    >>> len(graph)
    1

    Every effective mutation bumps :attr:`version` and is recorded in the
    change log, the basis of incremental cube maintenance:

    >>> seen = graph.version
    >>> _ = graph.add(Triple(IRI("http://example.org/bob"),
    ...               IRI("http://example.org/age"), Literal(28)))
    >>> delta = graph.deltas_since(seen)
    >>> (len(delta.added), len(delta.removed))
    (1, 0)
    """

    def __init__(
        self,
        triples: Optional[Iterable] = None,
        name: str | None = None,
        change_log_limit: int = DEFAULT_CHANGE_LOG_LIMIT,
    ):
        if change_log_limit < 0:
            raise ValueError(f"change_log_limit must be >= 0, got {change_log_limit}")
        self.name = name
        self._dictionary = TermDictionary()
        # The two permutation indexes (the only copies of the triples). Each
        # maps first-component id to a dict of second-component id to a set
        # of third-component ids.
        self._spo: Dict[int, Dict[int, Set[int]]] = {}
        self._pos: Dict[int, Dict[int, Set[int]]] = {}
        self._triple_count = 0
        # Column arrays of the columnar hooks, per predicate id: built on
        # first use, dropped when a mutation touches the predicate, never
        # pickled.
        self._columns: Dict[int, Dict[object, object]] = {}
        # Statistics kept with the indexes (see statistics_summary): triples
        # and distinct subjects per predicate id; zero counts are deleted.
        self._predicate_triples: Dict[int, int] = {}
        self._predicate_subjects: Dict[int, int] = {}
        self._version = 0
        # Bounded ring buffer of effective mutations: (version after the
        # mutation, +1 / -1, encoded triple).  Overflow evicts the *oldest*
        # record and advances ``_log_base`` — the oldest version the log can
        # still reconstruct deltas from; anything older degrades to the
        # full-invalidation answer (deltas_since -> None).
        self._change_log_limit = change_log_limit
        self._change_log: Deque[Tuple[int, int, EncodedTriple]] = deque()
        self._log_base = 0
        # Single-slot memo for deltas_since: refresh waves ask for the same
        # window once per cached entry.  Keyed by (asked-for version,
        # current version), so any mutation naturally invalidates it.
        self._delta_memo: Optional[Tuple[int, int, GraphDelta]] = None
        if triples is not None:
            for triple in triples:
                self.add(triple)

    @property
    def version(self) -> int:
        """Monotonic change counter: bumped by every effective mutation.

        Results computed against a graph snapshot (materialized ``pres(Q)``
        / ``ans(Q)`` cache entries, statistics) are stamped with the version
        they were built at; a stamp mismatch means the graph has been
        mutated since and the derived result can no longer be trusted.
        """
        return self._version

    # ------------------------------------------------------------------
    # dictionary access
    # ------------------------------------------------------------------

    @property
    def dictionary(self) -> TermDictionary:
        """The term dictionary backing this graph."""
        return self._dictionary

    def encode_term(self, term: Term) -> Optional[int]:
        """Return the id of ``term`` in this graph, or None when unseen."""
        return self._dictionary.lookup(term)

    def decode_id(self, term_id: int) -> Term:
        """Return the term for an id previously produced by this graph."""
        return self._dictionary.decode(term_id)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    @staticmethod
    def _as_triple(triple) -> Triple:
        if isinstance(triple, Triple):
            return triple
        try:
            subject, predicate, object_ = triple
        except (TypeError, ValueError) as exc:
            raise InvalidTripleError(f"cannot interpret {triple!r} as a triple") from exc
        return Triple(subject, predicate, object_)

    def add(self, triple) -> bool:
        """Add a triple; return True when it was not already present.

        ``triple`` may be a :class:`Triple` or a plain ``(s, p, o)`` tuple of
        terms (converted, with positional validation).
        """
        triple = self._as_triple(triple)
        encode = self._dictionary.encode
        encoded = (encode(triple.subject), encode(triple.predicate), encode(triple.object))
        if not self._index_add(encoded):
            return False
        self._version += 1
        self._log_change(1, encoded)
        return True

    def add_all(self, triples: Iterable) -> int:
        """Add every triple from ``triples``; return the number actually added."""
        added = 0
        for triple in triples:
            if self.add(triple):
                added += 1
        return added

    def remove(self, triple) -> bool:
        """Remove a triple; return True when it was present.

        Accepts what :meth:`add` accepts and rejects a malformed tuple the
        same way (:class:`~repro.errors.InvalidTripleError`).
        """
        triple = self._as_triple(triple)
        lookup = self._dictionary.lookup
        encoded = (lookup(triple.subject), lookup(triple.predicate), lookup(triple.object))
        if None in encoded or not self._index_remove(encoded):  # type: ignore[arg-type]
            return False
        self._version += 1
        self._log_change(-1, encoded)  # type: ignore[arg-type]
        return True

    def apply(self, add: Iterable = (), remove: Iterable = ()) -> int:
        """Apply one batch atomically: removals first, then additions.

        Returns the number of effective mutations.  When a triple raises (a
        malformed tuple, a read-only backend), the already-applied prefix is
        undone in reverse order before the error propagates: length,
        contents and the coalesced :meth:`deltas_since` of the version
        observed before the call are as if the batch had never started
        (only the version counter has moved).  The one batch-apply of the
        library — stream ingestion and the serving writer both go through
        it.
        """
        undo: List[Tuple[Callable[[object], bool], object]] = []
        try:
            for triple in remove:
                if self.remove(triple):
                    undo.append((self.add, triple))
            for triple in add:
                if self.add(triple):
                    undo.append((self.remove, triple))
        except Exception:
            for revert, triple in reversed(undo):
                revert(triple)
            raise
        return len(undo)

    def clear(self) -> None:
        """Remove all triples (the term dictionary is kept).

        Clearing degrades the change log to the full-invalidation sentinel:
        logging one removal per triple would usually blow the log bound
        anyway, and consumers patching derived results from deltas are
        better served by an honest "recompute from scratch" answer.
        """
        if self._triple_count:
            self._version += 1
        self._triple_count = 0
        self._spo.clear()
        self._pos.clear()
        self._columns.clear()
        self._predicate_triples.clear()
        self._predicate_subjects.clear()
        self._change_log.clear()
        self._log_base = self._version

    def _index_add(self, encoded: EncodedTriple) -> bool:
        """Index one triple; False (and nothing changed) when already present."""
        s, p, o = encoded
        by_predicate = self._spo.setdefault(s, {})
        objects = by_predicate.get(p)
        if objects is None:
            objects = by_predicate[p] = set()
            self._predicate_subjects[p] = self._predicate_subjects.get(p, 0) + 1
        elif o in objects:
            return False
        objects.add(o)
        self._pos.setdefault(p, {}).setdefault(o, set()).add(s)
        self._predicate_triples[p] = self._predicate_triples.get(p, 0) + 1
        self._triple_count += 1
        self._columns.pop(p, None)
        return True

    def _index_remove(self, encoded: EncodedTriple) -> bool:
        """Unindex one triple; False (and nothing changed) when absent."""
        s, p, o = encoded
        if o not in self._spo.get(s, {}).get(p, ()):
            return False
        self._discard_from_index(self._spo, s, p, o)
        self._discard_from_index(self._pos, p, o, s)
        self._decrement(self._predicate_triples, p)
        if p not in self._spo.get(s, ()):
            self._decrement(self._predicate_subjects, p)
        self._triple_count -= 1
        self._columns.pop(p, None)
        return True

    @staticmethod
    def _decrement(counts: Dict[int, int], key: int) -> None:
        if counts[key] == 1:
            del counts[key]
        else:
            counts[key] -= 1

    @staticmethod
    def _discard_from_index(index: Dict[int, Dict[int, Set[int]]], a: int, b: int, c: int) -> None:
        second = index[a]
        third = second[b]
        third.discard(c)
        if not third:
            del second[b]
            if not second:
                del index[a]

    # ------------------------------------------------------------------
    # change log (incremental-maintenance support)
    # ------------------------------------------------------------------

    def _log_change(self, sign: int, encoded: EncodedTriple) -> None:
        if self._change_log_limit == 0:
            self._log_base = self._version
            return
        log = self._change_log
        log.append((self._version, sign, encoded))
        while len(log) > self._change_log_limit:
            # Ring-buffer eviction: drop the *oldest* record only.  Under a
            # sustained write stream the log always retains the most recent
            # ``change_log_limit`` mutations, so consumers a few versions
            # behind keep getting deltas; only consumers older than the
            # window degrade to full invalidation.
            log.popleft()
        # Effective mutations bump the version by exactly 1 and log exactly
        # once, so the retained records cover (oldest version - 1, current].
        self._log_base = log[0][0] - 1

    @property
    def change_log_limit(self) -> int:
        """Maximum number of retained change records (0 disables the log)."""
        return self._change_log_limit

    @property
    def change_log_base(self) -> int:
        """The oldest version :meth:`deltas_since` can still answer for."""
        return self._log_base

    def deltas_since(self, version: int) -> Optional[GraphDelta]:
        """The coalesced triple deltas between ``version`` and now, or None.

        ``None`` is the **full-invalidation sentinel**: the graph cannot
        reconstruct the difference (the log overflowed past ``version``, the
        graph was cleared, or ``version`` is from the future), so derived
        results stamped at ``version`` must be recomputed, not patched.
        Opposite mutations of the same triple inside the window coalesce to
        nothing.
        """
        if version > self._version:
            return None
        if version == self._version:
            return GraphDelta((), (), version, self._version)
        if version < self._log_base:
            return None
        memo = self._delta_memo
        if memo is not None and memo[0] == version and memo[1] == self._version:
            return memo[2]
        # The window is the log's tail (versions grow along it): read it
        # backwards, then coalesce forward, in the mutations' order.
        window = list(takewhile(lambda record: record[0] > version, reversed(self._change_log)))
        net: Dict[EncodedTriple, int] = {}
        for _, sign, encoded in reversed(window):
            net[encoded] = net.get(encoded, 0) + sign
        added = tuple(triple for triple, balance in net.items() if balance > 0)
        removed = tuple(triple for triple, balance in net.items() if balance < 0)
        delta = GraphDelta(added, removed, version, self._version)
        self._delta_memo = (version, self._version, delta)
        return delta

    # ------------------------------------------------------------------
    # size / membership
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._triple_count

    def __contains__(self, triple) -> bool:
        """Membership of a triple; malformed input raises like :meth:`add`."""
        triple = self._as_triple(triple)
        lookup = self._dictionary.lookup
        ids = (lookup(triple.subject), lookup(triple.predicate), lookup(triple.object))
        return None not in ids and self.count_ids(*ids) > 0

    def __iter__(self) -> Iterator[Triple]:
        decode = self._dictionary.decode
        for s, p, o in self.encoded_triples():
            yield Triple(decode(s), decode(p), decode(o))  # type: ignore[arg-type]

    def __bool__(self) -> bool:
        return self._triple_count > 0

    # ------------------------------------------------------------------
    # pattern matching (term level)
    # ------------------------------------------------------------------

    def triples(
        self,
        subject: Optional[TermOrVariable] = None,
        predicate: Optional[TermOrVariable] = None,
        object: Optional[TermOrVariable] = None,
    ) -> Iterator[Triple]:
        """Iterate over triples matching the given (possibly open) pattern.

        ``None`` or a :class:`Variable` in a position means "any term".
        """
        decode = self._dictionary.decode
        for s, p, o in self.match_ids(
            self._position_id(subject), self._position_id(predicate), self._position_id(object)
        ):
            yield Triple(decode(s), decode(p), decode(o))  # type: ignore[arg-type]

    def _position_id(self, term: Optional[TermOrVariable]) -> Optional[int]:
        """Map a pattern position to an id constraint (None = unconstrained).

        A constant term that is not in the dictionary yields ``-1``, a
        sentinel id matching nothing, so that patterns over unknown terms
        return empty results instead of raising.
        """
        if term is None or isinstance(term, Variable):
            return None
        term_id = self._dictionary.lookup(term)
        return -1 if term_id is None else term_id

    # ------------------------------------------------------------------
    # pattern matching (id level) — the BGP evaluator's entry point
    # ------------------------------------------------------------------

    def match_ids(
        self, s: Optional[int], p: Optional[int], o: Optional[int]
    ) -> Iterator[EncodedTriple]:
        """Iterate over encoded triples matching the id-level pattern.

        Each position is either an integer id, ``-1`` (a constant unknown to
        the dictionary: matches nothing) or ``None`` (unconstrained).  The
        most selective available index is used.
        """
        if s == -1 or p == -1 or o == -1:
            return
        if s is not None:
            by_predicate = self._spo.get(s)
            if by_predicate is None:
                return
            if p is not None:
                objects = by_predicate.get(p)
                if objects is None:
                    return
                if o is not None:
                    if o in objects:
                        yield (s, p, o)
                    return
                for obj in objects:
                    yield (s, p, obj)
                return
            for pred, objects in by_predicate.items():
                if o is None:
                    for obj in objects:
                        yield (s, pred, obj)
                elif o in objects:
                    yield (s, pred, o)
            return
        if p is None and o is None:
            yield from self.encoded_triples()
            return
        for pred in (self._pos if p is None else (p,)):
            by_object = self._pos.get(pred, {})
            if o is None:
                for obj, subjects in by_object.items():
                    for subj in subjects:
                        yield (subj, pred, obj)
            else:
                for subj in by_object.get(o, ()):
                    yield (subj, pred, o)

    def match_single_ids(
        self, s: Optional[int], p: Optional[int], o: Optional[int], position: int
    ) -> Iterable[int]:
        """The ids appearing at one unconstrained ``position`` of the pattern.

        For patterns whose other two positions are both constrained this
        returns the terminal index set **directly** (no triple tuples are
        allocated) — the BGP evaluator's hottest access path, e.g. all
        objects of ``(s, p, ?)`` or all subjects of ``(?, p, o)``.  Callers
        must treat the result as read-only and must pass a ``position``
        whose value is ``None``.
        """
        if s == -1 or p == -1 or o == -1:
            return ()
        if position == 2 and s is not None and p is not None:
            return self._spo.get(s, {}).get(p, ())
        if position == 0 and p is not None and o is not None:
            return self._pos.get(p, {}).get(o, ())
        return (triple[position] for triple in self.match_ids(s, p, o))

    def count_ids(self, s: Optional[int], p: Optional[int], o: Optional[int]) -> int:
        """Return the number of triples matching the id-level pattern.

        Cheap (index-size based) for the common shapes used by the join
        optimizer; falls back to counting matches otherwise.
        """
        if s == -1 or p == -1 or o == -1:
            return 0
        if s is None and p is None and o is None:
            return self._triple_count
        if s is not None and p is None and o is None:
            return sum(len(objects) for objects in self._spo.get(s, {}).values())
        if p is not None and s is None and o is None:
            return self._predicate_triples.get(p, 0)
        if o is not None and s is None and p is None:
            return sum(len(by_object.get(o, ())) for by_object in self._pos.values())
        if p is not None and o is not None and s is None:
            return len(self._pos.get(p, {}).get(o, ()))
        if s is not None and p is not None:
            objects = self._spo.get(s, {}).get(p, ())
            return len(objects) if o is None else int(o in objects)
        return sum(1 for _ in self.match_ids(s, p, o))

    # ------------------------------------------------------------------
    # snapshot persistence / columnar hooks
    # ------------------------------------------------------------------

    #: Path of the backing snapshot file.  ``None`` on heap graphs; set (as
    #: a property) on :class:`repro.storage.mapped.SnapshotGraph`.  The
    #: parallel executor keys its worker attach mode off this: a non-None
    #: path means workers can re-open the snapshot by mmap instead of
    #: receiving a pickled graph.
    snapshot_path: Optional[str] = None

    def encoded_triples(self) -> Iterable[EncodedTriple]:
        """All triples as encoded ``(s, p, o)`` id tuples, read off an index.

        Heap graphs walk POS (so a :meth:`copy` rebuilds POS in this
        graph's order); mapped graphs yield from their fact columns.  The
        result is a one-pass iterator.
        """
        for p, by_object in self._pos.items():
            for o, subjects in by_object.items():
                for s in subjects:
                    yield (s, p, o)

    def _column(self, p_id: int, key, build):
        """The cached array(s) ``key`` of predicate ``p_id``: ``build(numpy)`` on a miss."""
        cache = self._columns.setdefault(p_id, {})
        found = cache.get(key)
        if found is None:
            import numpy  # only the columnar solver calls this: rdf/ imports no numpy

            found = cache[key] = build(numpy)
        return found

    def columnar_predicate_pairs(self, p_id: int):
        """``(subjects, objects)`` ``int64`` arrays of predicate ``p_id``.

        Heap graphs build them from POS in its iteration order (the row
        order of the columnar solver's scans) and keep them until a
        mutation touches ``p_id``; mapped snapshots slice their file.
        """

        def build(np):
            subjects: List[int] = []
            objects: List[int] = []
            for s, _, o in self.match_ids(None, p_id, None):
                subjects.append(s)
                objects.append(o)
            return (np.asarray(subjects, dtype=np.int64), np.asarray(objects, dtype=np.int64))

        return self._column(p_id, "pairs", build)

    def columnar_sorted_pairs(self, p_id: int, sort_position: int):
        """``(sorted keys, aligned values)`` arrays of predicate ``p_id``.

        ``sort_position`` 0 gives ``(subjects, objects)`` sorted by subject;
        2 gives ``(objects, subjects)`` sorted by object.  A heap graph
        stable-sorts its :meth:`columnar_predicate_pairs`.
        """

        def build(np):
            subjects, objects = self.columnar_predicate_pairs(p_id)
            keys, values = (subjects, objects) if sort_position == 0 else (objects, subjects)
            order = np.argsort(keys, kind="stable")
            return (keys[order], values[order])

        return self._column(p_id, sort_position, build)

    def columnar_candidates(self, s: Optional[int], p: int, o: Optional[int], position: int):
        """Sorted ``int64`` ids at the one free ``position`` of a two-constant pattern."""

        def build(np):
            return np.sort(np.fromiter(self.match_single_ids(s, p, o, position), dtype=np.int64))

        return self._column(p, (s, o, position), build)

    def statistics_summary(self) -> Dict[str, object]:
        """Summary counts for :class:`~repro.rdf.statistics.GraphStatistics`.

        ``triple_count`` plus four term-keyed count dicts; predicates and
        classes without a triple are absent.  Heap graphs keep the counts
        with their indexes on every effective mutation, mapped snapshots in
        their header, so this is O(#predicates + #classes) — never a scan.
        """
        predicates, classes = self._summary_rows()
        decode = self._dictionary.decode
        counts: Dict[Term, int] = {}
        distinct_subjects: Dict[Term, int] = {}
        distinct_objects: Dict[Term, int] = {}
        for p_id, count, subjects, objects in predicates:
            predicate = decode(p_id)
            counts[predicate] = count
            distinct_subjects[predicate] = subjects
            distinct_objects[predicate] = objects
        return {
            "triple_count": len(self),
            "predicate_counts": counts,
            "predicate_distinct_subjects": distinct_subjects,
            "predicate_distinct_objects": distinct_objects,
            "class_counts": {decode(c_id): count for c_id, count in classes},
        }

    def _summary_rows(self):
        """Id-level ``(p, triples, subjects, objects)`` and ``(class, instances)`` rows."""
        pos = self._pos
        subjects = self._predicate_subjects
        predicates = [
            (p, count, subjects[p], len(pos[p]))
            for p, count in self._predicate_triples.items()
        ]
        instances = pos.get(self._dictionary.lookup(_RDF_TYPE), {})
        return predicates, [(c, len(members)) for c, members in instances.items()]

    # ------------------------------------------------------------------
    # navigation helpers
    # ------------------------------------------------------------------

    def subjects(self, predicate: Optional[Term] = None, object: Optional[Term] = None) -> Iterator[Term]:
        """Iterate over distinct subjects of triples matching ``(_, p, o)``."""
        seen: Set[Term] = set()
        for triple in self.triples(None, predicate, object):
            if triple.subject not in seen:
                seen.add(triple.subject)
                yield triple.subject

    def predicates(self, subject: Optional[Term] = None, object: Optional[Term] = None) -> Iterator[Term]:
        """Iterate over distinct predicates of triples matching ``(s, _, o)``."""
        seen: Set[Term] = set()
        for triple in self.triples(subject, None, object):
            if triple.predicate not in seen:
                seen.add(triple.predicate)
                yield triple.predicate

    def objects(self, subject: Optional[Term] = None, predicate: Optional[Term] = None) -> Iterator[Term]:
        """Iterate over distinct objects of triples matching ``(s, p, _)``."""
        seen: Set[Term] = set()
        for triple in self.triples(subject, predicate, None):
            if triple.object not in seen:
                seen.add(triple.object)
                yield triple.object

    def value(self, subject: Term, predicate: Term) -> Optional[Term]:
        """Return one object of ``(subject, predicate, _)`` or None."""
        for obj in self.objects(subject, predicate):
            return obj
        return None

    # ------------------------------------------------------------------
    # partitioning (parallel execution support)
    # ------------------------------------------------------------------

    def partition(self, count: int) -> Tuple[GraphShard, ...]:
        """Split the term-id space into ``count`` contiguous fact shards.

        Shards share this graph's dictionary and copy nothing; they are
        id-interval specs consumed by the per-shard evaluation paths
        (:meth:`repro.bgp.evaluator.BGPEvaluator.evaluate_ids` with a
        ``fact_range``, and :mod:`repro.olap.parallel` above it).  The
        intervals are equal-width over the ids assigned so far, disjoint,
        and jointly cover the whole id space — the last shard is open-ended
        so terms encoded after partitioning still land in it.

        ``count`` may exceed the dictionary size; the surplus shards are
        simply empty, which the merge algebra handles (an empty shard
        contributes no γ states and no ``pres(Q)`` rows).
        """
        if count < 1:
            raise ValueError(f"shard count must be >= 1, got {count}")
        size = len(self._dictionary)
        boundaries = [(index * size) // count for index in range(count)]
        boundaries.append(None)  # the last shard is open-ended
        return tuple(
            GraphShard(index, count, boundaries[index], boundaries[index + 1])
            for index in range(count)
        )

    # ------------------------------------------------------------------
    # set-style operations
    # ------------------------------------------------------------------

    def copy(self, name: str | None = None) -> "Graph":
        """Return an independent heap copy of this graph (shared nothing).

        **Id-preserving**: the copy's dictionary holds the same terms under
        the same ids — terms whose triples were all removed included — so
        encoded relations and change-log records of this graph read the same
        in the copy.  It keeps this graph's ``change_log_limit`` but starts
        its own history (version 0, empty log; see :meth:`adopt_history`).
        """
        clone = Graph(name=name or self.name, change_log_limit=self._change_log_limit)
        clone._dictionary = self._dictionary.copy()
        for encoded in self.encoded_triples():
            clone._index_add(encoded)
        return clone

    def adopt_history(self, source: "Graph") -> None:
        """Take over ``source``'s version stamp and retained change-log tail.

        For a graph holding ``source``'s current triples under ``source``'s
        ids (an id-preserving :meth:`copy`, a re-opened snapshot of it): it
        then sits on ``source``'s version axis, and :meth:`deltas_since`
        answers for an older stamp exactly what ``source`` would — ``None``
        included (overflow, ``change_log_limit=0``, ``clear()``).  This is
        how a published generation lets results cached against its
        predecessors be delta-refreshed instead of recomputed.
        """
        self._version = version = source._version
        self._change_log = deque(record for record in source._change_log if record[0] <= version)
        self._log_base = source._log_base
        self._delta_memo = None

    def union(self, other: "Graph", name: str | None = None) -> "Graph":
        """Return a new graph holding the triples of both graphs."""
        result = self.copy(name=name)
        result.add_all(other)
        return result

    def __eq__(self, other: object) -> bool:
        """Graphs are equal when they hold the same set of (ground) triples.

        Note: blank nodes are compared by label, not by graph isomorphism;
        this is sufficient for the deterministic generators and tests used
        in this project.
        """
        if not isinstance(other, Graph):
            return NotImplemented
        if len(self) != len(other):
            return False
        return all(triple in other for triple in self)

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_columns"] = {}  # the receiver rebuilds what it reads
        return state

    # Graphs are mutable and compare by triple-set contents, so they must
    # not be hashable; assigning None (rather than a raising method) makes
    # them fail isinstance(graph, collections.abc.Hashable) checks too.
    __hash__ = None  # type: ignore[assignment]

    # ------------------------------------------------------------------
    # presentation
    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover
        label = f" {self.name!r}" if self.name else ""
        return f"Graph({label} {len(self)} triples)"
