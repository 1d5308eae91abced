"""BGP query evaluation over an RDF graph.

The evaluator enumerates the homomorphisms (total variable bindings) of a
query body into the graph by processing triple patterns one at a time in an
optimizer-chosen order, then projects the bindings onto the query head:

* with **set semantics** (default) duplicate head rows are eliminated — the
  semantics of classifiers and of AnS node/edge definitions;
* with **bag semantics** one output row is produced per homomorphism — the
  semantics of measure queries, where the number of embeddings matters
  (Section 2 of the paper).

Execution is entirely in **id space**: bindings are flat tuples of encoded
term ids, slotted positionally (one slot per variable, assigned when the
join order is fixed), so extending a binding is an index lookup plus a
tuple copy — no per-candidate dictionaries, no consistency re-checks
(slots bound by earlier patterns are part of the index lookup itself).

:meth:`BGPEvaluator.evaluate_ids` exposes the raw id-level result as an
:class:`~repro.algebra.relation.IdRelation`; downstream operators (joins,
Σ-selections, γ) keep working on ids and terms are only decoded at the
result boundary.  :meth:`BGPEvaluator.evaluate` materializes immediately
and is the decoded-term compatibility API.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import EvaluationError
from repro.algebra import columnar as columnar_kernels
from repro.algebra.columnar import ColumnarIdRelation, resolve_engine
from repro.algebra.relation import IdRelation, Relation, tuple_getter
from repro.rdf.graph import Graph
from repro.rdf.statistics import GraphStatistics
from repro.rdf.terms import Variable
from repro.rdf.triples import TriplePattern
from repro.bgp.optimizer import order_patterns
from repro.bgp.query import BGPQuery

try:  # numpy is the optional [fast] extra; the row engine needs none of it
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

__all__ = ["BGPEvaluator", "evaluate_query", "gathered_relation"]


class BGPEvaluator:
    """Evaluates BGP queries over one graph, reusing its statistics.

    Create one evaluator per graph when several queries are evaluated (the
    analytics layer does this); the statistics used for join ordering are
    then computed once.
    """

    def __init__(
        self,
        graph: Graph,
        statistics: Optional[GraphStatistics] = None,
        engine: Optional[str] = None,
    ):
        self._graph = graph
        self._statistics = statistics if statistics is not None else GraphStatistics(graph)
        self._engine = resolve_engine(engine)

    @property
    def graph(self) -> Graph:
        return self._graph

    @property
    def statistics(self) -> GraphStatistics:
        return self._statistics

    @property
    def engine(self) -> str:
        """The resolved execution engine: ``"rows"`` or ``"columnar"``."""
        return self._engine

    # ------------------------------------------------------------------

    def evaluate_ids(
        self,
        query: BGPQuery,
        semantics: str = "set",
        seed: Optional[Dict[Variable, Sequence[int]]] = None,
        fact_range: Optional[Tuple[Variable, int, Optional[int]]] = None,
    ) -> IdRelation:
        """Evaluate ``query`` and return the id-level relation over its head.

        Every column holds encoded term ids of this graph's dictionary; no
        term object is materialized.  This is the engine's native entry
        point — decoded results are a :meth:`materialize` call away.

        ``seed`` — parallel id columns, one per variable, all the same
        length — starts the solver from one binding per position instead
        of from the empty binding (a VALUES clause): the result is the
        union of the evaluations under each seed row.  A delta refresh
        seeds the fact variable with its affected facts; an empty column
        gives an empty result.

        ``fact_range`` — a ``(variable, lo, hi)`` triple (``hi`` may be
        None for "unbounded") — restricts one variable's bindings to term
        ids in ``[lo, hi)``.  This is the shard-evaluation hook of the
        partitioned engine: bindings outside the range are pruned as soon
        as the variable is bound, so a shard pays only for its own slice of
        the join work, not a post-hoc filter over the full result.  A seed
        and a range are never combined.
        """
        if semantics not in ("set", "bag"):
            raise EvaluationError(f"unknown semantics {semantics!r}; expected 'set' or 'bag'")

        # Seeded calls stay on the row solver: a mutation drops the column
        # arrays of every predicate it touches and a heap graph rebuilds one
        # with a Python pass over the predicate, so a seeded (delta-sized)
        # solve after each ingest batch would cost O(predicate) there.
        if self._engine == "columnar" and not seed:
            # The columnar fast path: emit column blocks instead of per-row
            # binding tuples.  Unsupported query shapes (variable
            # predicates, disconnected joins, repeated in-pattern
            # variables) answer None and take the row path below.
            result = self._solve_columnar(query, semantics, fact_range)
            if result is not None:
                return result

        bindings, slot_of = self._solve(query, seed, fact_range)
        dictionary = self._graph.dictionary
        if not bindings:
            return IdRelation.adopt_encoded(query.head_names, [], dictionary)
        try:
            head_slots = [slot_of[variable] for variable in query.head]
        except KeyError as exc:  # pragma: no cover - guarded by query safety check
            raise EvaluationError(
                f"head variable {exc.args[0]!r} unbound after evaluation"
            ) from exc

        head_of = tuple_getter(head_slots)
        if semantics == "set":
            rows = list(_distinct_rows(map(head_of, bindings)))
        else:
            rows = [head_of(binding) for binding in bindings]
        return IdRelation.adopt_encoded(query.head_names, rows, dictionary)

    def evaluate(
        self,
        query: BGPQuery,
        semantics: str = "set",
        seed: Optional[Dict[Variable, Sequence[int]]] = None,
        fact_range: Optional[Tuple[Variable, int, Optional[int]]] = None,
    ) -> Relation:
        """Evaluate ``query`` and return a decoded relation over its head variables.

        Parameters
        ----------
        query:
            The BGP query to evaluate.
        semantics:
            ``"set"`` (deduplicate head rows) or ``"bag"`` (one row per
            homomorphism of the body).
        seed:
            Optional id columns the solver starts from (see
            :meth:`evaluate_ids`); seeded variables may also appear in the
            head.
        fact_range:
            Optional id-range restriction of one variable (see
            :meth:`evaluate_ids`).
        """
        return self.evaluate_ids(
            query, semantics=semantics, seed=seed, fact_range=fact_range
        ).to_rows("decode:bgp").materialize()

    def count(self, query: BGPQuery, semantics: str = "set") -> int:
        """Return the number of answers without materializing term objects."""
        return len(self.evaluate_ids(query, semantics=semantics))

    # ------------------------------------------------------------------
    # columnar solving loop (column blocks)
    # ------------------------------------------------------------------

    def _solve_columnar(
        self,
        query: BGPQuery,
        semantics: str,
        fact_range: Optional[Tuple[Variable, int, Optional[int]]] = None,
    ) -> Optional[ColumnarIdRelation]:
        """Evaluate ``query`` as whole column blocks; None when unsupported.

        The binding state is a block of parallel ``int64`` arrays (one per
        bound variable, all the same length) instead of a list of slot
        tuples.  Each triple pattern extends the block with one vectorized
        operation against the graph's column arrays
        (:meth:`~repro.rdf.graph.Graph.columnar_sorted_pairs` and its
        siblings):

        * a pattern binding one new variable from a bound one is an
          expansion join (:func:`~repro.algebra.columnar.expand_sorted`
          against the pre-sorted per-predicate pair arrays);
        * a pattern over two bound variables keeps the rows whose object is
          among the objects of their subject's run (the same expansion, by
          subject); over one bound variable and a constant, an ``np.isin``
          mask against the candidate ids;
        * the ``fact_range`` of shard evaluation is a single batched
          ``(lo <= ids) & (ids < hi)`` prune of the whole block, applied
          the moment the restricted variable is bound.

        Supported shapes cover the analytical workloads (constant
        predicates, connected join graphs).  Variable predicates, repeated
        variables inside one pattern and disconnected patterns fall back to
        the row engine — same answers, tuple at a time.
        """
        graph = self._graph
        dictionary = graph.dictionary

        head_names = query.head_names

        def empty_result() -> ColumnarIdRelation:
            arrays = {name: _np.empty(0, dtype=_np.int64) for name in head_names}
            return ColumnarIdRelation.from_arrays(head_names, arrays, dictionary)

        ordered = order_patterns(query.body, self._statistics, bound_variables=set())
        block: Dict[Variable, object] = {}
        length: Optional[int] = None  # None = no columns yet (one empty binding)
        pending_range = fact_range

        for pattern in ordered:
            s, p, o = pattern.as_tuple()
            if isinstance(p, Variable):
                return None  # variable predicates: row path
            p_id = graph.encode_term(p)
            if p_id is None:
                return empty_result()
            s_is_var = isinstance(s, Variable)
            o_is_var = isinstance(o, Variable)
            if s_is_var and o_is_var and s == o:
                return None  # repeated in-pattern variable: row path
            s_id = None
            if not s_is_var:
                s_id = graph.encode_term(s)
                if s_id is None:
                    return empty_result()
            o_id = None
            if not o_is_var:
                o_id = graph.encode_term(o)
                if o_id is None:
                    return empty_result()
            s_bound = s_is_var and s in block
            o_bound = o_is_var and o in block
            s_free = s_is_var and not s_bound
            o_free = o_is_var and not o_bound

            if s_free and o_free:
                if length is not None:
                    return None  # disconnected pattern: cartesian step, row path
                subjects, objects = graph.columnar_predicate_pairs(p_id)
                block = {s: subjects, o: objects}
                length = len(subjects)
            elif s_free or o_free:
                free_variable = s if s_free else o
                if (s_free and o_bound) or (o_free and s_bound):
                    # Expansion join on the bound end of the pattern.
                    bound_variable = o if s_free else s
                    sort_position = 2 if s_free else 0
                    keys, values = graph.columnar_sorted_pairs(p_id, sort_position)
                    left_idx, positions = columnar_kernels.expand_sorted(
                        block[bound_variable], keys
                    )
                    block = {
                        variable: array[left_idx] for variable, array in block.items()
                    }
                    block[free_variable] = values[positions]
                    length = len(left_idx)
                else:
                    # The other end is a constant: a candidate column.
                    if length is not None:
                        return None  # shares no variable with the block
                    position = 0 if s_free else 2
                    candidates = graph.columnar_candidates(s_id, p_id, o_id, position)
                    block = {free_variable: candidates}
                    length = len(candidates)
            else:
                # No free variable: an existence filter.
                if s_bound and o_bound:
                    keys, values = graph.columnar_sorted_pairs(p_id, 0)
                    left_idx, positions = columnar_kernels.expand_sorted(block[s], keys)
                    mask = _np.zeros(length, dtype=bool)
                    mask[left_idx[values[positions] == block[o][left_idx]]] = True
                elif s_bound:
                    mask = _np.isin(block[s], graph.columnar_candidates(None, p_id, o_id, 0))
                elif o_bound:
                    mask = _np.isin(block[o], graph.columnar_candidates(s_id, p_id, None, 2))
                else:
                    # Fully constant pattern: the conjunction survives or dies.
                    if graph.count_ids(s_id, p_id, o_id) == 0:
                        return empty_result()
                    continue
                block = {variable: array[mask] for variable, array in block.items()}
                length = int(mask.sum())

            if pending_range is not None and pending_range[0] in block:
                # Batched fact-range prune: one vectorized compare over the
                # whole block the moment the restricted variable is bound.
                _, lo, hi = pending_range
                column = block[pending_range[0]]
                mask = column >= lo
                if hi is not None:
                    mask &= column < hi
                block = {variable: array[mask] for variable, array in block.items()}
                length = int(mask.sum())
                pending_range = None

            if length == 0:
                return empty_result()

        try:
            head_arrays = [block[variable] for variable in query.head]
        except KeyError:
            return None  # a head variable the supported shapes never bound
        if semantics == "set":
            keep = columnar_kernels.dedup_arrays(head_arrays)
            head_arrays = [array[keep] for array in head_arrays]
        return ColumnarIdRelation.from_arrays(
            head_names,
            dict(zip(head_names, head_arrays)),
            dictionary,
        )

    # ------------------------------------------------------------------
    # core solving loop (id level)
    # ------------------------------------------------------------------

    def _solve(
        self,
        query: BGPQuery,
        seed: Optional[Dict[Variable, Sequence[int]]] = None,
        fact_range: Optional[Tuple[Variable, int, Optional[int]]] = None,
    ) -> Tuple[List[Tuple[Optional[int], ...]], Dict[Variable, int]]:
        """Return (list of slot tuples, variable → slot index).

        A slot tuple holds one encoded id per variable; slots of variables
        not yet bound hold ``None`` (only possible transiently — after the
        last pattern every body variable is bound).
        """
        seed = seed or {}
        pending_range = fact_range
        ordered = order_patterns(query.body, self._statistics, bound_variables=set(seed))

        # Fixed slot assignment: seeded variables first, then body variables
        # in the order the chosen join order binds them.
        slot_of: Dict[Variable, int] = dict(zip(seed, range(len(seed))))
        for pattern in ordered:
            for term in pattern.as_tuple():
                if isinstance(term, Variable) and term not in slot_of:
                    slot_of[term] = len(slot_of)

        # One start tuple per seed row (the empty binding when unseeded).
        unbound = (None,) * (len(slot_of) - len(seed))
        bindings: List[Tuple[Optional[int], ...]] = (
            [row + unbound for row in zip(*seed.values())] if seed else [unbound]
        )
        bound = set(seed)
        for pattern in ordered:
            if not bindings:
                return [], slot_of
            range_check: Optional[Tuple[int, int, Optional[int]]] = None
            if pending_range is not None and pending_range[0] in pattern.variables():
                # This pattern binds the restricted variable: prune to the
                # shard's id interval inside the extension loop, before any
                # out-of-range binding tuple is even allocated — later
                # patterns never see foreign facts.
                range_check = (slot_of[pending_range[0]], pending_range[1], pending_range[2])
            bindings = self._extend(bindings, pattern, slot_of, bound, range_check)
            bound.update(pattern.variables())
            if range_check is not None:
                pending_range = None
        return bindings, slot_of

    def _extend(
        self,
        bindings: List[Tuple[Optional[int], ...]],
        pattern: TriplePattern,
        slot_of: Dict[Variable, int],
        bound: set,
        range_check: Optional[Tuple[int, int, Optional[int]]] = None,
    ) -> List[Tuple[Optional[int], ...]]:
        """Extend every binding with the matches of one pattern.

        The pattern is compiled once against the (static) set of variables
        bound by earlier patterns: each position is a pre-encoded constant,
        a bound slot (part of the index lookup) or a free slot (filled from
        the matched triple).  Matches are consistent by construction; only
        a variable repeated in free positions of the *same* pattern needs
        an equality check.

        ``range_check`` — a ``(slot, lo, hi)`` triple — drops matches whose
        id for that slot falls outside ``[lo, hi)`` (shard evaluation; the
        slot is always free here, since the caller only restricts a
        variable this pattern binds for the first time).
        """
        graph = self._graph
        positions = pattern.as_tuple()

        constants: List[Optional[int]] = [None, None, None]
        bound_positions: List[Tuple[int, int]] = []  # (triple position, slot)
        free_positions: List[Tuple[int, int]] = []  # first occurrence of each free var
        duplicate_checks: List[Tuple[int, int]] = []  # (position, first position)
        first_seen: Dict[Variable, int] = {}
        for index, term in enumerate(positions):
            if isinstance(term, Variable):
                if term in bound:
                    bound_positions.append((index, slot_of[term]))
                elif term in first_seen:
                    duplicate_checks.append((index, first_seen[term]))
                else:
                    first_seen[term] = index
                    free_positions.append((index, slot_of[term]))
            else:
                term_id = graph.encode_term(term)
                if term_id is None:
                    return []  # unknown constant: the whole conjunction is empty
                constants[index] = term_id

        match_ids = graph.match_ids
        extended: List[Tuple[Optional[int], ...]] = []

        if len(free_positions) == 1 and not duplicate_checks:
            # One free variable (the dominant shape: e.g. the objects of
            # ``(x, hasAge, ?d)`` with x bound): iterate the terminal index
            # set directly, allocating nothing but the extended bindings.
            free_index, free_slot = free_positions[0]
            match_single = graph.match_single_ids
            if range_check is not None and range_check[0] == free_slot:
                # Shard evaluation of the pattern binding the fact variable:
                # integer-compare each candidate id before allocating — the
                # per-shard cost of the fact-enumerating pattern collapses
                # to a range scan.
                _, lo, hi = range_check
                for binding in bindings:
                    lookup = list(constants)
                    for index, slot in bound_positions:
                        lookup[index] = binding[slot]
                    for value in match_single(lookup[0], lookup[1], lookup[2], free_index):
                        if value < lo or (hi is not None and value >= hi):
                            continue
                        new_binding = list(binding)
                        new_binding[free_slot] = value
                        extended.append(tuple(new_binding))
                return extended
            for binding in bindings:
                lookup = list(constants)
                for index, slot in bound_positions:
                    lookup[index] = binding[slot]
                for value in match_single(lookup[0], lookup[1], lookup[2], free_index):
                    new_binding = list(binding)
                    new_binding[free_slot] = value
                    extended.append(tuple(new_binding))
            return extended

        if not free_positions:
            # Fully bound pattern: a per-binding existence check.
            for binding in bindings:
                lookup = list(constants)
                for index, slot in bound_positions:
                    lookup[index] = binding[slot]
                for _ in match_ids(lookup[0], lookup[1], lookup[2]):
                    extended.append(binding)
                    break
            return extended

        for binding in bindings:
            lookup = list(constants)
            for index, slot in bound_positions:
                lookup[index] = binding[slot]
            for triple_ids in match_ids(lookup[0], lookup[1], lookup[2]):
                consistent = True
                for index, first_index in duplicate_checks:
                    if triple_ids[index] != triple_ids[first_index]:
                        consistent = False
                        break
                if not consistent:
                    continue
                new_binding = list(binding)
                for index, slot in free_positions:
                    new_binding[slot] = triple_ids[index]
                if range_check is not None:
                    value = new_binding[range_check[0]]
                    if value < range_check[1] or (
                        range_check[2] is not None and value >= range_check[2]
                    ):
                        continue
                extended.append(tuple(new_binding))
        return extended


def _distinct_rows(rows: Iterable[Tuple]) -> Iterator[Tuple]:
    seen = set()
    for row in rows:
        if row not in seen:
            seen.add(row)
            yield row


def evaluate_query(
    query: BGPQuery,
    graph: Graph,
    semantics: str = "set",
    statistics: Optional[GraphStatistics] = None,
) -> Relation:
    """One-shot convenience wrapper around :class:`BGPEvaluator`."""
    return BGPEvaluator(graph, statistics).evaluate(query, semantics=semantics)


def gathered_relation(
    engine: Optional[str],
    columns: Sequence[str],
    values: Dict[str, object],
    table: List[int],
    dictionary,
    encoded: Sequence[str],
) -> IdRelation:
    """A relation read back from disk, in ``engine``'s storage over ``dictionary``.

    ``values[name]`` is one column: an int64 buffer, or a list of the plain
    values that have no int64 form.  An ``encoded`` column's buffer holds
    positions in ``table`` — the live ids — and is gathered through it.
    """
    if resolve_engine(engine) == "columnar":
        live = _np.asarray(table, dtype=_np.int64)
        arrays = {}
        for name in columns:
            column = values[name]
            if isinstance(column, list):  # no int64 form: float64 if every value is a float
                floats = set(map(type, column)) == {float}
                arrays[name] = _np.array(column, dtype=_np.float64 if floats else object)
            else:
                array = _np.frombuffer(column, dtype=_np.int64)
                arrays[name] = live[array] if name in encoded else array
        return ColumnarIdRelation.from_arrays(columns, arrays, dictionary, encoded)
    lists = [[table[i] for i in values[name]] if name in encoded else list(values[name]) for name in columns]
    return IdRelation.adopt_encoded(columns, list(zip(*lists)), dictionary, encoded)
