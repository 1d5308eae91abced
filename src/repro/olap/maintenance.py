"""Incremental maintenance of materialized ``pres(Q)`` / ``ans(Q)`` results.

The paper's reuse story assumes the instance is static; this module makes
cached results survive instance **updates**.  Given the coalesced
triple-level deltas between the version a result was computed at and the
graph's current version (:meth:`repro.rdf.graph.Graph.deltas_since`),
:class:`DeltaMaintainer` patches the materialized results instead of
recomputing them:

1. **Affected facts.** A partial-result row can only change when some
   embedding of the classifier or measure body maps a triple pattern onto a
   changed triple.  Each body pattern is unified with the delta once, and
   the body is re-evaluated *seeded* with the bindings of every delta
   triple it unifies with (one VALUES-style evaluation per pattern),
   projecting the fact variable — over an *overlay* graph (current graph
   plus the removed triples), which is a superset of both the old and the
   new instance, so facts losing embeddings are found too.  The union of
   these projections is a sound superset of every fact whose classifier
   rows or measure bag changed.

2. **Patch pres(Q).** The affected facts' rows are re-derived from the
   current graph by one
   :meth:`~repro.analytics.evaluator.AnalyticalQueryEvaluator.partial_result`
   seeded with the affected facts — Definition 4 built where scratch
   evaluation builds it, the solver starting from the fact column instead
   of enumerating every fact — and spliced in place of the facts' cached
   rows (:meth:`~repro.algebra.relation.Relation.splice`); every other row
   is kept verbatim.  On the columnar engine ``pres(Q)`` is in fact order,
   so the facts' runs are found by binary search and the fresh rows go in
   at their positions.

3. **γ over the touched groups.** A group is *touched* when its dimension
   tuple appears on a dropped or a re-derived row.  The touched groups'
   rows of the patched ``pres(Q)``, which the splice hands back from one
   pass, go through
   :meth:`~repro.analytics.evaluator.AnalyticalQueryEvaluator.answer_from_partial`
   — Equation (3)'s γ, the one scratch evaluation and every rewriting use —
   and the resulting cells are spliced over the touched cells of the cached
   ``ans(Q)`` (:meth:`~repro.analytics.answer.CubeAnswer.patched`);
   untouched cells are kept verbatim, decoded ones too, and only the
   regrouped cells are decoded.  Maintenance is
   thereby one more ``pres → pres`` derivation followed by the shared γ: no
   aggregate is ever inverted, a refreshed cell is γ of the group's
   current rows.

The result is cell-for-cell identical to a from-scratch recomputation (the
differential oracle in ``tests/properties/test_property_maintenance.py``
enforces exactly that).  Its cost follows the delta: the re-derivation,
the γ and the decode are delta-sized, and the splice sorts, ranks and
searches no array of the instance's size — what is left of ``|pres(Q)|``
and ``|ans(Q)|`` is one vectorized pass to find the touched groups' rows
and the copy of the new columns (results are immutable).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from repro.algebra.relation import Relation
from repro.analytics.answer import KeyGenerator, MaterializedQueryResults
from repro.analytics.evaluator import AnalyticalQueryEvaluator
from repro.analytics.query import AnalyticalQuery
from repro.bgp.evaluator import BGPEvaluator
from repro.bgp.query import BGPQuery
from repro.rdf.graph import EncodedTriple, Graph, GraphDelta
from repro.rdf.terms import Term, Variable

__all__ = ["DeltaMaintainer"]


class _TripleOverlay:
    """Read-only graph view of a base graph plus extra encoded triples.

    Used to evaluate affected-fact probes over ``new ∪ removed`` — a
    superset of both the pre- and post-update instance — without mutating
    the live graph (which would bump its version and spuriously invalidate
    every other cache entry).  The extra triples are the *net-removed*
    deltas, so they are disjoint from the base by construction and no
    deduplication is needed.
    """

    __slots__ = ("_base", "_extra")

    def __init__(self, base: Graph, extra: Iterable[EncodedTriple]):
        self._base = base
        self._extra = tuple(extra)

    @property
    def dictionary(self):
        return self._base.dictionary

    def encode_term(self, term: Term) -> Optional[int]:
        return self._base.encode_term(term)

    def decode_id(self, term_id: int) -> Term:
        return self._base.decode_id(term_id)

    def match_ids(self, s: Optional[int], p: Optional[int], o: Optional[int]):
        yield from self._base.match_ids(s, p, o)
        if s == -1 or p == -1 or o == -1:
            return
        for triple in self._extra:
            if (
                (s is None or triple[0] == s)
                and (p is None or triple[1] == p)
                and (o is None or triple[2] == o)
            ):
                yield triple

    def match_single_ids(
        self, s: Optional[int], p: Optional[int], o: Optional[int], position: int
    ):
        return (triple[position] for triple in self.match_ids(s, p, o))


class DeltaMaintainer:
    """Patches materialized query results from graph deltas.

    Parameters
    ----------
    evaluator:
        The session's analytical evaluator over the live instance; supplies
        the seeded ``partial_result`` that re-derives affected facts and the
        statistics the affected-fact probes use.

    Examples
    --------
    After an instance mutation the session's cached results are patched
    through the maintainer (when priced cheaper than recomputing); either
    way the served cube equals a from-scratch recomputation:

    >>> from repro.datagen.generic import GenericConfig, generic_dataset, generic_query
    >>> from repro.olap.session import OLAPSession
    >>> dataset = generic_dataset(GenericConfig(facts=40, dimensions=2, seed=11))
    >>> query = generic_query(dataset.config, aggregate="count")
    >>> session = OLAPSession(dataset.instance, dataset.schema)
    >>> _ = session.execute(query)
    >>> dropped = next(iter(dataset.instance.triples()))
    >>> dataset.instance.remove(dropped)
    True
    >>> after = session.execute(query)
    >>> session.history[-1].strategy in ("refresh", "scratch", "parallel")
    True
    >>> from repro.analytics.evaluator import AnalyticalQueryEvaluator
    >>> from repro.olap.cube import Cube
    >>> oracle = AnalyticalQueryEvaluator(dataset.instance).answer(query)
    >>> after.same_cells(Cube(oracle, query))
    True
    """

    def __init__(self, evaluator: AnalyticalQueryEvaluator):
        self._evaluator = evaluator
        self._graph = evaluator.instance
        self._statistics = evaluator.bgp_evaluator.statistics
        # A refresh *wave* prices and patches many cache entries against one
        # graph version, and a session's entries overwhelmingly share
        # classifier and measure bodies (Σ and head differ, bodies do not).
        # The delta's unifications with each body pattern and the
        # affected-fact probes are therefore memoized, keyed by value-hashable
        # patterns and queries, and cleared the moment the graph moves on.
        self._memo_version: Optional[int] = None
        self._probe_memo: Dict[tuple, frozenset] = {}
        self._unified_memo: Dict[tuple, List[Dict[Variable, int]]] = {}
        # id-keyed, but each value holds a strong reference to its pattern,
        # so an id can never be recycled while its memo entry is alive.
        self._pattern_memo: Dict[int, tuple] = {}

    def _sync_memos(self) -> None:
        # Statistics need no handling here: GraphStatistics is stamped with
        # the graph version and re-reads the graph's own summary (counters
        # kept with the indexes, no scan) on the next estimate.
        version = self._graph.version
        if self._memo_version != version:
            self._memo_version = version
            self._probe_memo.clear()
            self._unified_memo.clear()
            self._pattern_memo.clear()

    # ------------------------------------------------------------------
    # what the planner prices a refresh from
    # ------------------------------------------------------------------

    def patchable(self, query: AnalyticalQuery) -> bool:
        """Whether entries of ``query`` can be patched from deltas at all.

        Rolled entries derive from a *mapped* base pres: re-deriving facts
        from the instance cannot reproduce the hierarchy substitution (the
        planner re-rolls them from a refreshed finer-grained entry instead).
        They invalidate instead.
        """
        return not query.rollup

    def unifications(self, query: AnalyticalQuery, delta: GraphDelta) -> int:
        """How many (delta triple, body pattern) pairs unify for ``query``.

        Each is one seed row of an affected-fact probe.  Unifying is
        O(|delta| · |body|) id comparisons, memoized and shared with the
        probes, so pricing a refresh by this count costs the probes nothing
        and never charges a blogger-post insertion for classifier patterns
        it can never touch.
        """
        self._sync_memos()
        return sum(
            len(self._unified(pattern, delta))
            for pattern in (*query.classifier.body, *query.measure.body)
        )

    # ------------------------------------------------------------------
    # affected facts
    # ------------------------------------------------------------------

    def affected_facts(self, query: AnalyticalQuery, delta: GraphDelta) -> Set[int]:
        """Ids of every fact whose ``pres(Q)`` rows may have changed.

        Sound superset: any embedding of the classifier or measure body that
        exists in the old instance or the new one but not both must map some
        pattern onto a delta triple, and every such embedding is found by
        the seeded probes over the overlay (which contains both instances).
        """
        self._sync_memos()
        fact = query.fact_variable
        probes = (
            BGPQuery([fact], query.classifier.body, name="affected_classifier"),
            BGPQuery([fact], query.measure.body, name="affected_measure"),
        )
        overlay_evaluator = None
        affected: Set[int] = set()
        for probe in probes:
            memo_key = (probe, delta.from_version, delta.to_version)
            found = self._probe_memo.get(memo_key)
            if found is None:
                probe_hits: Set[int] = set()
                for pattern in probe.body:
                    bindings = self._unified(pattern, delta)
                    if not bindings:
                        continue
                    if fact in bindings[0]:
                        # The pattern itself binds the fact variable: the
                        # only fact any embedding through such a triple can
                        # have is the bound one.  Flagging it without
                        # checking that a full embedding exists keeps the
                        # set a (cheap) superset.
                        probe_hits.update(bound[fact] for bound in bindings)
                        continue
                    if overlay_evaluator is None:
                        # The overlay has no columnar hooks: the row solver.
                        overlay = _TripleOverlay(self._graph, delta.removed)
                        overlay_evaluator = BGPEvaluator(
                            overlay, statistics=self._statistics, engine="rows"
                        )
                    # One seed row per unified triple (a pattern without
                    # variables seeds nothing: the whole probe runs).
                    seed = {
                        variable: [bound[variable] for bound in bindings]
                        for variable in bindings[0]
                    }
                    result = overlay_evaluator.evaluate_ids(probe, semantics="set", seed=seed)
                    probe_hits.update(row[0] for row in result.rows)
                found = frozenset(probe_hits)
                self._probe_memo[memo_key] = found
            affected |= found
        return set(affected)

    def _unified(self, pattern, delta: GraphDelta) -> List[Dict[Variable, int]]:
        """The bindings of every delta triple that unifies with ``pattern``.

        Memoized per (pattern, delta) until the graph moves on:
        :meth:`unifications` counts them and the affected-fact probes are
        seeded with them, so each (pattern, delta triple) pair is unified once.
        """
        key = (pattern, delta.from_version, delta.to_version)
        found = self._unified_memo.get(key)
        if found is None:
            unified = (self._unify_ids(pattern, triple) for triple in delta.added + delta.removed)
            found = self._unified_memo[key] = [bound for bound in unified if bound is not None]
        return found

    def _compiled_pattern(self, pattern) -> tuple:
        """The pattern's positions with constants pre-encoded to ids.

        Each position is ``(True, Variable)`` or ``(False, id-or-None)``.
        Version-scoped (cleared by :meth:`_sync_memos`): a constant unknown
        to the dictionary today may be introduced by tomorrow's delta.
        """
        entry = self._pattern_memo.get(id(pattern))
        if entry is not None and entry[0] is pattern:
            return entry[1]
        encode = self._graph.encode_term
        compiled = tuple(
            (True, term) if isinstance(term, Variable) else (False, encode(term))
            for term in pattern.as_tuple()
        )
        self._pattern_memo[id(pattern)] = (pattern, compiled)
        return compiled

    def _unify_ids(self, pattern, triple: EncodedTriple) -> Optional[Dict[Variable, int]]:
        """Bind the pattern's variables to the triple's term ids, or None.

        Fails when a constant position disagrees with the triple or a
        repeated variable would need two different ids.
        """
        bound_ids: Dict[Variable, int] = {}
        for (is_variable, value), term_id in zip(self._compiled_pattern(pattern), triple):
            if is_variable:
                seen = bound_ids.get(value)
                if seen is not None and seen != term_id:
                    return None
                bound_ids[value] = term_id
            elif value != term_id:  # includes value None (unknown constant)
                return None
        return bound_ids

    # ------------------------------------------------------------------
    # the refresh itself
    # ------------------------------------------------------------------

    def refresh(
        self, materialized: MaterializedQueryResults, delta: GraphDelta
    ) -> Optional[MaterializedQueryResults]:
        """Patched results equal to a from-scratch recompute, or None.

        ``None`` means the entry is not patchable (a rolled query, or
        relations not in this graph's id space) and the caller should fall
        back to invalidation.  When the delta does not touch the query at
        all the input object is returned as-is — the caller only needs to
        re-stamp its version.
        """
        query = materialized.query
        if not self.patchable(query):
            return None
        partial = materialized.partial
        answer = materialized.answer
        pres_storage = partial.storage
        ans_storage = answer.storage
        dictionary = self._graph.dictionary
        if any(
            getattr(storage, "dictionary", None) is not dictionary
            for storage in (pres_storage, ans_storage)
        ):
            return None  # not in this graph's id space: nothing to splice into
        if delta.is_empty():
            return materialized

        self._sync_memos()
        affected = self.affected_facts(query, delta)
        if not affected:
            return materialized

        # Re-derive the affected facts' rows from the current instance — one
        # pres(Q) seeded with them — under newk() keys above every cached one
        # so they cannot collide, into the storage the cached pres has.
        keys = KeyGenerator(start=pres_storage.column_max(partial.key_column) + 1)
        derived = self._evaluator.partial_result(query, key_generator=keys, seed=sorted(affected))
        fresh = pres_storage.with_rows(derived.storage.rows)

        # The splice: the affected facts' rows leave and the fresh ones take
        # their place, every other row kept verbatim.  γ runs over the touched
        # groups only — those of a removed or a fresh row, whose rows of the
        # new pres the splice hands back — so a 1-triple delta on a 100k-row
        # pres never re-aggregates the groups it did not reach.  Their cells
        # replace the touched cells of the cached ans; a group left without
        # rows (or undefined under ⊕) simply yields no cell.
        dimensions = partial.dimension_columns
        spliced, dropped, touched_rows = pres_storage.splice(
            (partial.fact_column,), {(fact,) for fact in affected}, fresh, touching=dimensions
        )
        regrouped = self._evaluator.answer_from_partial(query, partial.with_storage(touched_rows))
        touched = _key_tuples(dropped, dimensions) | _key_tuples(fresh, dimensions)
        return MaterializedQueryResults(
            query, answer.patched(touched, regrouped), partial.with_storage(spliced)
        )


def _key_tuples(relation: Relation, columns) -> Set[tuple]:
    """The distinct value tuples over ``columns``, read column by column (a
    columnar relation stays in its arrays; these relations are delta-sized)."""
    if not columns:
        return {()} if len(relation) else set()
    return set(zip(*map(relation.column_values, columns)))
