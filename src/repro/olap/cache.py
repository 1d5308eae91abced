"""Bounded cache of materialized query results, keyed by canonical query form.

The paper assumes "pres(Q) ... has been materialized and stored as part of
the evaluation of the original query Q".  In a session answering a *stream*
of OLAP operations that assumption needs infrastructure: results must be
findable by the query they answer (not by the navigation path that produced
them), memory must stay bounded, results computed against a graph that has
since been mutated must never be served, and results should outlive the
process that computed them.  :class:`ResultCache` provides exactly that:

* entries are keyed by :func:`canonical_query_key`, a *value-based* canonical
  form of the analytical query (classifier, measure, aggregate and Σ —
  display names excluded), so a DICE of a SLICE finds the SLICE's
  materialized results no matter which operation chain produced them;
* the store is a bounded LRU: reads refresh recency, inserts beyond
  ``capacity`` evict the least recently used entry;
* every entry is stamped with the instance graph's change counter
  (:attr:`repro.rdf.graph.Graph.version`); a stamped-version mismatch on
  lookup never returns the stale result — but when the graph's change log
  can still produce the triple deltas since the stamp
  (:meth:`~repro.rdf.graph.Graph.deltas_since`), the entry is *retained*
  for :meth:`ResultCache.refresh`, which patches it in place via a
  :class:`~repro.olap.maintenance.DeltaMaintainer` instead of throwing the
  work away; only entries past the log window are dropped as invalidated;
* the mutation paths (LRU recency moves, inserts, evictions, pin
  bookkeeping) are guarded by a reentrant lock, so the cache can be shared
  by the serving layer's concurrent reader threads (one writer at a time;
  see :mod:`repro.serving`);
* with a ``store_dir`` the cache writes entries through to disk and serves
  misses from disk, which is how a new session warm-starts from a previous
  one's work.  An entry is one binary file in the section container of
  :mod:`repro.storage.snapshot` (header ``kind`` ``"cache-entry"``): the
  header holds the manifest (canonical key, each relation's columns in
  their layout order and which are encoded, the aggregate, the instance's
  triple count and fingerprint) and the plain values with no int64 form;
  a local value table holds the terms and derived values the encoded
  columns reference, each stored as int64 positions in it, and plain int
  columns (the ``k`` key) are int64 sections.  A read decodes each table
  value once, maps it to a live id and gathers the columns through that
  mapping: a warm-started entry is in the graph's id space and the
  session's engine storage, like any other;
* entries can be **pinned** against LRU eviction (:meth:`ResultCache.pin`)
  — the workload advisor pins the entries whose replay benefit it values
  most, so a burst of one-off queries cannot wash them out of the cache;
* a cache over a *later generation* of the same graph can take another's
  entries over, stale-stamped (:meth:`ResultCache.adopt`) — how the serving
  layer carries a tenant's cubes across a publish.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import threading
from array import array
from collections import OrderedDict
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import ReproError, SnapshotFormatError
from repro.analytics.answer import CubeAnswer, MaterializedQueryResults, PartialResult
from repro.analytics.query import AnalyticalQuery
from repro.bgp.evaluator import gathered_relation
from repro.rdf.graph import Graph
from repro.storage.snapshot import (
    Container,
    decode_records,
    decode_term_record,
    record_table,
    term_record,
    write_container,
)

__all__ = [
    "canonical_query_key",
    "graph_fingerprint",
    "CacheStats",
    "CacheEntry",
    "ResultCache",
    "carried",
    "in_log_window",
]

#: Default number of in-memory entries an :class:`ResultCache` retains.
DEFAULT_CAPACITY = 64

#: The header ``kind`` of a cache-entry file.
_ENTRY_KIND = "cache-entry"

#: What reading a bad entry file raises: a typed storage or parse error, or
#: a header of the wrong shape.  Each is a counted miss, never a failed read.
_BAD_ENTRY = (ReproError, OSError, LookupError, TypeError, ValueError, ArithmeticError)


# ---------------------------------------------------------------------------
# graph content fingerprint (cross-process staleness checks)
# ---------------------------------------------------------------------------


def graph_fingerprint(graph: Graph) -> str:
    """Order-independent content digest of a graph, stable across processes.

    The in-memory staleness check uses :attr:`Graph.version`, but that
    counter restarts with every process, so persisted cache entries need a
    stamp derived from the *content*: the XOR of per-triple SHA-256 digests
    over the triples' N-Triples rendering.  XOR-accumulation makes the
    digest independent of iteration order (and of dictionary-id assignment
    order, which differs between processes).  The O(n) scan is memoized per
    mutation generation *on the graph instance itself* — never keyed by
    ``id()``, whose values are recycled after garbage collection and could
    hand a dead graph's digest to a new one.
    """
    memo = getattr(graph, "_content_fingerprint", None)
    if memo is not None and memo[0] == graph.version:
        return memo[1]
    accumulator = 0
    for triple in graph:
        line = f"{triple.subject.n3()} {triple.predicate.n3()} {triple.object.n3()}"
        accumulator ^= int.from_bytes(
            hashlib.sha256(line.encode("utf-8")).digest()[:16], "big"
        )
    digest = f"{accumulator:032x}"
    graph._content_fingerprint = (graph.version, digest)
    return digest


# ---------------------------------------------------------------------------
# canonical query keys
# ---------------------------------------------------------------------------


def canonical_query_key(query: AnalyticalQuery) -> str:
    """The key ``query``'s results are cached under, held on the query
    (:attr:`~repro.analytics.query.AnalyticalQuery.canonical_key`)."""
    return query.canonical_key


# ---------------------------------------------------------------------------
# entry files (warm start across sessions)
# ---------------------------------------------------------------------------


def _save_entry(path: str, key: str, materialized: MaterializedQueryResults, graph: Graph) -> None:
    """Write one entry, fresh at ``graph``'s version, as a container file."""
    table: Dict[object, int] = {}  # decoded value → position in the value table
    relations: Dict[str, dict] = {}
    plain: Dict[str, list] = {}
    sections: Dict[str, array] = {}
    for label, relation in (("partial", materialized.partial.storage), ("answer", materialized.answer.storage)):
        encoded = [name for name in relation.columns if relation.column_decoder(name) is not None]
        relations[label] = {"columns": list(relation.columns), "encoded": encoded}
        for name in relation.columns:
            values = relation.column_values(name)
            if name in encoded:
                decode = relation.column_decoder(name)
                position = {value: table.setdefault(decode(value), len(table)) for value in set(values)}
                values = list(map(position.__getitem__, values))
            elif not all(type(value) is int and -(1 << 63) <= value < (1 << 63) for value in values):
                plain[f"{label}.{name}"] = [term_record(value) for value in values]
                continue
            sections[f"{label}.{name}"] = array("q", values)
    kinds, offsets, blob, _ = record_table(table)
    sections.update(term_kinds=kinds, term_offsets=offsets, term_blob=blob)
    manifest = {
        "kind": _ENTRY_KIND,
        "canonical_key": key,
        "aggregate": materialized.query.aggregate.name,
        "instance_triples": len(graph),
        "instance_fingerprint": graph_fingerprint(graph),
        "relations": relations,
        "plain": plain,
    }
    write_container(path, manifest, sections)


def _load_entry(
    path: str, query: AnalyticalQuery, key: str, graph: Graph, engine: Optional[str]
) -> Optional[MaterializedQueryResults]:
    """The entry at ``path`` in ``graph``'s id space and ``engine``'s storage;
    None when it was computed for another key or another instance content.

    Each table value is decoded once and mapped to a live id — the graph's
    own, or a derived one (:meth:`~repro.rdf.dictionary.TermDictionary.encode_derived`)
    — and each encoded column is gathered through that mapping.  A bad file
    raises (see ``_BAD_ENTRY``).
    """
    container = Container(path, kind=_ENTRY_KIND)
    header = container.header
    stamp = (header["canonical_key"], header["instance_triples"], header["instance_fingerprint"])
    if stamp != (key, len(graph), graph_fingerprint(graph)):
        return None
    sections = container.read_sections()
    dictionary, plain = graph.dictionary, header["plain"]
    records = decode_records(sections["term_kinds"], sections["term_offsets"], sections["term_blob"])
    table = list(map(dictionary.encode_derived, records))
    stored = {}
    for label, layout in header["relations"].items():
        values = {}
        for name in layout["columns"]:
            section = f"{label}.{name}"
            stored_plain = plain.get(section)
            values[name] = sections[section] if stored_plain is None else [
                decode_term_record(*record) for record in stored_plain
            ]
        stored[label] = gathered_relation(
            engine, layout["columns"], values, table, dictionary, layout["encoded"]
        )
    partial, answer = stored["partial"], stored["answer"]
    fact, *dimensions, key_column, measure = partial.columns
    return MaterializedQueryResults(
        query,
        CubeAnswer(answer, answer.columns[:-1], answer.columns[-1]),
        PartialResult(partial, fact, tuple(dimensions), key_column, measure),
    )


# ---------------------------------------------------------------------------
# the cache
# ---------------------------------------------------------------------------


class CacheStats:
    """Hit / miss / eviction / invalidation / refresh accounting of one cache.

    ``refreshes`` counts stale entries successfully patched from graph
    deltas (see :meth:`ResultCache.refresh`), on a read or after a batch;
    ``invalidations`` counts entries actually dropped because they could not
    (or should not) be patched.  ``lazy_refreshes`` has no producer and reads 0.
    """

    __slots__ = (
        "hits",
        "misses",
        "evictions",
        "invalidations",
        "refreshes",
        "lazy_refreshes",
        "disk_hits",
        "disk_rejects",
        "puts",
        "adopted",
    )

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.refreshes = 0
        #: Always 0: no entry is marked for refresh-on-read (the read path
        #: prices every stale entry).  Kept because the benchmark reports it.
        self.lazy_refreshes = 0
        self.disk_hits = 0
        #: Disk entries that could not be read (truncated, corrupt, foreign
        #: or an older format): each a miss, overwritten by the recompute.
        self.disk_rejects = 0
        self.puts = 0
        #: Entries taken over, born stale, from a cache over an earlier
        #: generation of the graph (:meth:`ResultCache.adopt`) — not puts.
        self.adopted = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover
        parts = ", ".join(f"{name}={getattr(self, name)}" for name in self.__slots__)
        return f"CacheStats({parts})"


class CacheEntry:
    """One cached materialized result with its validity stamp."""

    __slots__ = ("key", "core_key", "materialized", "graph_version", "origin", "hits")

    def __init__(
        self,
        key: str,
        core_key: str,
        materialized: MaterializedQueryResults,
        graph_version: int,
        origin: str = "memory",
    ):
        self.key = key
        self.core_key = core_key
        self.materialized = materialized
        self.graph_version = graph_version
        #: ``"memory"`` for entries computed this session, ``"disk"`` for
        #: entries served from the persistent store (warm start).
        self.origin = origin
        self.hits = 0

    @property
    def query(self) -> AnalyticalQuery:
        return self.materialized.query

    def __repr__(self) -> str:  # pragma: no cover
        return f"CacheEntry({self.query.name!r}, v{self.graph_version}, {self.origin})"


def carried(entries: Iterable[CacheEntry], graph: Graph) -> List[CacheEntry]:
    """``entries`` as a later generation ``graph`` of their graph can hold them.

    Each keeps its own stamp and has its relations rebound to
    ``graph.dictionary`` (no copy; the decoded cells stay shared).  Left
    behind: entries whose stamp ``graph`` cannot bring forward
    (``deltas_since`` would answer None) and rolled-up entries (their derived
    ids belong to the old dictionary, and they are not patchable anyway).
    """
    dictionary = graph.dictionary
    return [
        CacheEntry(
            entry.key, entry.core_key, entry.materialized.with_dictionary(dictionary), entry.graph_version
        )
        for entry in entries
        if not entry.query.rollup and in_log_window(entry.graph_version, graph)
    ]


def in_log_window(stamp: int, graph: Graph) -> bool:
    """Whether ``graph.deltas_since(stamp)`` can still answer (not computing it)."""
    return graph.change_log_base <= stamp <= graph.version


class ResultCache:
    """Bounded LRU store of materialized pres(Q)/ans(Q) results.

    Parameters
    ----------
    capacity:
        Maximum number of in-memory entries; 0 disables in-memory caching
        entirely (lookups only consult the disk store, if any).
    store_dir:
        Optional directory for write-through persistence and warm starts.
        Entries land in one binary file each, named by a digest of the
        canonical key (not human-readable; see the module docstring).

    Examples
    --------
    Sessions store every materialized result here; a repeated execution
    is a cache hit and never touches the instance:

    >>> from repro.datagen.generic import GenericConfig, generic_dataset, generic_query
    >>> from repro.olap.session import OLAPSession
    >>> dataset = generic_dataset(GenericConfig(facts=25, dimensions=2, seed=5))
    >>> query = generic_query(dataset.config, aggregate="count")
    >>> session = OLAPSession(dataset.instance, dataset.schema)
    >>> _ = session.execute(query)            # miss: evaluated, then stored
    >>> _ = session.execute(query)            # hit: served from the cache
    >>> session.history[-1].strategy
    'cache'
    >>> len(session.cache) >= 1 and session.cache.stats.hits >= 1
    True
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY, store_dir: Optional[str] = None):
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        self._capacity = capacity
        self._store_dir = store_dir
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self._pinned: set = set()
        # Reentrant: refresh() re-enters stale_entry(), and the serving
        # layer's reader threads race get/put/pin against each other.
        self._lock = threading.RLock()
        self.stats = CacheStats()

    # -- introspection -------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def store_dir(self) -> Optional[str]:
        return self._store_dir

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> Tuple[str, ...]:
        """Canonical keys, least recently used first."""
        with self._lock:
            return tuple(self._entries)

    def entries(self) -> List[CacheEntry]:
        """The live entries, least recently used first (read-only use)."""
        with self._lock:
            return list(self._entries.values())

    def entries_with_core(self, query: AnalyticalQuery) -> Iterator[CacheEntry]:
        """Entries whose Σ-independent canonical form matches ``query``'s.

        These are the planner's rewrite sources besides the origin: same
        classifier/measure/aggregate, possibly another Σ or lattice level.
        Iteration does not touch recency (the candidate list is snapshotted
        under the lock, so a concurrent insert cannot corrupt it).
        """
        core = query.core_key
        with self._lock:
            candidates = list(self._entries.values())
        for entry in candidates:
            if entry.core_key == core:
                yield entry

    # -- lookup / insertion --------------------------------------------------

    def get(
        self, query: AnalyticalQuery, graph: Graph, engine: Optional[str] = None
    ) -> Optional[CacheEntry]:
        """The entry for ``query``'s canonical form, or None.

        A hit refreshes LRU recency.  An entry stamped with an older graph
        version is never served — a cache hit must not return a result
        computed against a graph that has since been mutated.  When the
        graph can still report the triple deltas since the stamp, the stale
        entry is *retained* (a miss, awaiting :meth:`refresh`); otherwise it
        is dropped and counted as an invalidation.  On a miss the disk
        store, when configured, is consulted and a disk hit — read into
        ``graph``'s id space and ``engine``'s storage (the resolved default
        when None) — is promoted into memory.
        """
        key = query.canonical_key
        with self._lock:
            entry = self.hit(query, graph)
            if entry is not None:
                return entry
            stale = self._entries.get(key)
            if stale is not None and graph.deltas_since(stale.graph_version) is None:
                self.invalidate(key)
            self.stats.misses += 1
            return self._load_from_store(key, query, graph, engine)

    def hit(self, query: AnalyticalQuery, graph: Graph, ready=None) -> Optional[CacheEntry]:
        """The fresh in-memory entry for ``query``, counted as a hit (recency,
        statistics) — when there is one and ``ready(entry)``, if given, holds;
        otherwise None, with no side effect and no disk lookup.  Checked and
        counted under one lock hold, so an entry evicted meanwhile is a None."""
        with self._lock:
            entry = self._entries.get(query.canonical_key)
            if entry is None or entry.graph_version != graph.version:
                return None
            if ready is not None and not ready(entry):
                return None
            self._entries.move_to_end(entry.key)
            entry.hits += 1
            self.stats.hits += 1
            return entry

    def stale_entry(self, query: AnalyticalQuery, graph: Graph):
        """The retained stale entry for ``query`` plus its pending deltas.

        Returns ``(entry, delta)`` when the in-memory entry for ``query``'s
        canonical form is stamped with an older graph version and the graph
        can produce the deltas since that stamp; None otherwise (entries that
        turn out unpatchable are dropped and counted as invalidations).  No
        statistics or recency updates — this is the planner's probe.
        """
        key = query.canonical_key
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.graph_version == graph.version:
                return None
            delta = graph.deltas_since(entry.graph_version)
            if delta is None:
                self.invalidate(key)
                return None
            return entry, delta

    def refresh(self, query: AnalyticalQuery, graph: Graph, maintainer) -> Optional[CacheEntry]:
        """Patch the stale entry for ``query`` from graph deltas, in place.

        ``maintainer`` is a :class:`~repro.olap.maintenance.DeltaMaintainer`
        over the same graph.  On success the entry holds results equal to a
        from-scratch recompute at the graph's current version, is re-stamped
        and re-persisted (write-through), gains recency, and ``refreshes``
        is counted.  When the entry is missing, already fresh, or the patch
        is not possible, None is returned (an unpatchable entry is dropped
        as an invalidation) and the caller should fall back to recomputing.
        """
        with self._lock:
            found = self.stale_entry(query, graph)
            if found is None:
                return None
            entry, delta = found
            refreshed = maintainer.refresh(entry.materialized, delta)
            if refreshed is None:
                self.invalidate(entry.key)
                return None
            entry.materialized = refreshed
            entry.graph_version = graph.version
            self.stats.refreshes += 1
            self._entries.move_to_end(entry.key)
            self._write_through(entry.key, refreshed, graph)
            return entry

    def put(
        self,
        query: AnalyticalQuery,
        materialized: MaterializedQueryResults,
        graph: Graph,
        version: Optional[int] = None,
    ) -> CacheEntry:
        """Insert (or refresh) the entry for ``query``, evicting LRU overflow.

        The entry is stamped with ``version`` — the graph change counter the
        caller *observed when it materialized the result* — falling back to
        the graph's current counter when omitted.  Callers that evaluate and
        insert in two steps must pass the execute-time version: a mutation
        interleaved between materialization and insertion otherwise yields a
        fresh-stamped entry holding stale cells.  An entry stamped with an
        older version is inserted *born stale*: :meth:`get` will never serve
        it, but :meth:`refresh` can still patch it from the change log.

        With a disk store the entry is also written through; a ``capacity`` of 0 keeps nothing in memory but still
        writes through, so a cacheless session can feed a later warm start.
        The persisted stamp is only written when the result is known fresh —
        a born-stale entry must not poison a later warm start with a
        fingerprint it never matched.
        """
        key = query.canonical_key
        stamped = graph.version if version is None else int(version)
        entry = CacheEntry(key, query.core_key, materialized, stamped)
        with self._lock:
            self.stats.puts += 1
            self._insert(entry)
            if stamped == graph.version:
                self._write_through(key, materialized, graph)
        return entry

    def _insert(self, entry: CacheEntry) -> None:
        """Store ``entry`` most recently used, evicting LRU overflow (caller holds the lock)."""
        if self._capacity > 0:
            self._entries[entry.key] = entry
            self._entries.move_to_end(entry.key)
            self._evict_overflow()

    def adopt(self, entries: Iterable[CacheEntry], graph: Graph, pinned: Iterable[str] = ()) -> int:
        """Take over ``entries`` of a cache over an earlier generation of
        ``graph`` (least recently used first); returns how many crossed.

        What :func:`carried` lets through is inserted *born stale*, as
        :meth:`put` inserts an older ``version``: :meth:`get` never serves it,
        and the planner prices :meth:`refresh` against recomputing on its
        first read.  Nothing was materialized — it counts as ``adopted``, not
        as a put — and a key already held is left alone.  Of ``pinned`` only
        the adopted keys are pinned.
        """
        if not self._capacity:
            return 0
        heirs, pinned, adopted = carried(entries, graph), set(pinned), 0
        with self._lock:
            for entry in heirs:
                if entry.key in self._entries:
                    continue
                if entry.key in pinned:
                    self._pinned.add(entry.key)
                self._insert(entry)
                adopted += 1
            self.stats.adopted += adopted
        return adopted

    def invalidate(self, query_or_key) -> bool:
        """Drop an entry that cannot (or should not) be patched; True when
        one was held.

        Counted in ``stats.invalidations``.  Unlike :meth:`evict` the pin,
        which is keyed by canonical form, survives: the next result stored
        for the key is pinned again.  Disk copies are kept.
        """
        key = self._resolve_key(query_or_key)
        with self._lock:
            if self._entries.pop(key, None) is None:
                return False
            self.stats.invalidations += 1
            return True

    def _write_through(self, key: str, materialized: MaterializedQueryResults, graph: Graph) -> None:
        """Persist a result known fresh at ``graph``'s current version, when a
        disk store is configured."""
        if self._store_dir is None:
            return
        path = self._entry_path(key)
        if os.path.isdir(path):  # an entry directory of the earlier TSV format
            shutil.rmtree(path)
        os.makedirs(self._store_dir, exist_ok=True)
        try:
            _save_entry(path, key, materialized, graph)
        except SnapshotFormatError:
            pass  # a value with no record form: the entry stays in memory only

    def discard(self, query: AnalyticalQuery) -> bool:
        """Drop the in-memory entry for ``query`` (disk copies are kept)."""
        key = query.canonical_key
        with self._lock:
            self._pinned.discard(key)
            return self._entries.pop(key, None) is not None

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._pinned.clear()

    # -- pinning (advisor support) -------------------------------------------

    @staticmethod
    def _resolve_key(query_or_key) -> str:
        return query_or_key if isinstance(query_or_key, str) else query_or_key.canonical_key

    def pin(self, query_or_key) -> bool:
        """Protect an entry from LRU eviction until :meth:`unpin`.

        Accepts an :class:`~repro.analytics.query.AnalyticalQuery` or a
        canonical key string.  Pins are keyed by canonical form, so they
        survive the entry being refreshed or re-``put`` (a fresher result
        for the same query stays pinned).  Pinning a key with no in-memory
        entry is allowed — the pin takes effect as soon as the entry is
        (re)inserted — and returns False.  A fully pinned cache may exceed
        ``capacity`` rather than drop pinned work.
        """
        key = self._resolve_key(query_or_key)
        with self._lock:
            self._pinned.add(key)
            return key in self._entries

    def unpin(self, query_or_key) -> bool:
        """Drop an entry's eviction protection; True when it was pinned."""
        key = self._resolve_key(query_or_key)
        with self._lock:
            if key in self._pinned:
                self._pinned.remove(key)
                return True
            return False

    def pinned_keys(self) -> Tuple[str, ...]:
        """Canonical keys currently pinned (whether or not in memory)."""
        with self._lock:
            return tuple(sorted(self._pinned))

    def evict(self, query_or_key) -> bool:
        """Explicitly evict an entry (advisor early-eviction), unpinning it.

        Unlike LRU overflow this also removes the pin, and the drop is
        counted in ``stats.evictions``.  Disk copies are kept.
        """
        key = self._resolve_key(query_or_key)
        with self._lock:
            self._pinned.discard(key)
            if self._entries.pop(key, None) is not None:
                self.stats.evictions += 1
                return True
            return False

    def _evict_overflow(self) -> None:
        """Evict least-recently-used *unpinned* entries down to capacity."""
        while len(self._entries) > self._capacity:
            victim = next(
                (key for key in self._entries if key not in self._pinned), None
            )
            if victim is None:
                # Every entry is pinned: exceeding capacity is the lesser
                # evil — the caller asked for all of them explicitly.
                break
            del self._entries[victim]
            self.stats.evictions += 1

    # -- disk store ----------------------------------------------------------

    def _entry_path(self, key: str) -> str:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:20]
        return os.path.join(self._store_dir, digest)  # type: ignore[arg-type]

    def _load_from_store(
        self, key: str, query: AnalyticalQuery, graph: Graph, engine: Optional[str]
    ) -> Optional[CacheEntry]:
        if self._store_dir is None:
            return None
        path = self._entry_path(key)
        if not os.path.exists(path):
            return None
        try:
            materialized = _load_entry(path, query, key, graph, engine)
        except _BAD_ENTRY:
            self.stats.disk_rejects += 1
            return None
        if materialized is None:
            return None
        entry = CacheEntry(key, query.core_key, materialized, graph.version, origin="disk")
        entry.hits += 1
        self.stats.disk_hits += 1
        self._insert(entry)
        return entry

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ResultCache({len(self._entries)}/{self._capacity} entries, "
            f"{self.stats.hits} hits, {self.stats.misses} misses)"
        )
