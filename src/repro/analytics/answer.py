"""Materialized results of analytical queries: ``ans``, ``pres``, ``int``, ``mᵏ``.

This module defines the result containers and the ``newk()`` key generator;
the evaluation logic producing them lives in
:mod:`repro.analytics.evaluator`.

Column conventions (used consistently across the library, tests and
benchmarks):

* the **fact column** is named after the query's fact variable (``x`` in the
  paper's examples);
* **dimension columns** are named after the dimension variables
  (``dage``, ``dcity``, ...);
* the **key column** added by the extended measure result ``mᵏ`` is named
  ``"k"`` (:data:`~repro.analytics.query.KEY_COLUMN`);
* the **raw measure column** is named after the measure variable (``v``,
  ``vsite``, ``vwords``, ...);
* the **aggregated measure column** of ``ans(Q)`` keeps the measure
  variable's name.

A :class:`CubeAnswer` also keeps its decoded columns, gathered once — on the
columnar engine one term-table gather per encoded column — and shared; its
keyed cell map is built from them on the first keyed lookup.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import MaterializationError
from repro.algebra.expressions import comparable
from repro.algebra.operators import select
from repro.algebra.relation import Relation

__all__ = ["KeyGenerator", "PartialResult", "CubeAnswer", "MaterializedQueryResults"]


class KeyGenerator:
    """The ``newk()`` key-creating function.

    Returns a distinct value at each call; the simple implementation used
    here (and suggested by the paper for illustration) returns successive
    integers 1, 2, 3, ...

    Examples
    --------
    >>> keys = KeyGenerator()
    >>> keys(), keys()
    (1, 2)
    >>> keys.take(3)
    range(3, 6)
    >>> keys()
    6
    """

    def __init__(self, start: int = 1):
        self._next = start

    def __call__(self) -> int:
        value = self._next
        self._next += 1
        return value

    def take(self, count: int) -> range:
        """Consume ``count`` consecutive keys at once (the columnar ``mᵏ``).

        Equivalent to ``count`` single calls; the returned range *is* the
        keys, ready to become an ``arange`` column without a Python loop.
        """
        start = self._next
        self._next += count
        return range(start, self._next)


class PartialResult:
    """``pres(Q, I)`` — the partial result of an AnQ (Definition 4).

    Wraps the relation ``c(I) ⋈ₓ mᵏ(I)`` together with the column names it
    was built with, so the OLAP rewriting algorithms can address the fact,
    dimension, key and measure columns by role rather than by position.

    The wrapped relation may live in **id space**
    (:class:`~repro.algebra.relation.IdRelation`): every ``pres → pres``
    derivation — ROLL-UP included — consumes :attr:`storage` and never
    decodes, while :attr:`relation` is the decoded view for external
    consumers (tests, display) — materialized lazily, once.

    A SLICE/DICE ``pres(Q_T) = σ_Σ′(pres(Q))`` is **deferred**
    (:meth:`selected`): it shares the parent's relation until :attr:`storage`
    is first read, and knows its layout (σ's input layout) all along.
    """

    def __init__(
        self,
        relation: Relation,
        fact_column: str,
        dimension_columns: Tuple[str, ...],
        key_column: str,
        measure_column: str,
    ):
        expected = (fact_column, *dimension_columns, key_column, measure_column)
        if tuple(relation.columns) != expected:
            raise MaterializationError(
                f"partial-result relation columns {relation.columns} do not match the expected "
                f"layout {expected}"
            )
        # (relation, Σ predicates still to apply to it): one attribute, so a
        # reader never sees half of a realization.
        self._state: Tuple[Relation, tuple] = (relation, ())
        self._decoded: Optional[Relation] = None
        self.columns: Tuple[str, ...] = expected
        self.fact_column = fact_column
        self.dimension_columns = dimension_columns
        self.key_column = key_column
        self.measure_column = measure_column

    @property
    def storage(self) -> Relation:
        """The relation in its native value space (ids when engine-built).

        A pending σ runs here, and the parent is dropped; two threads
        reading at once may both run it, and either (equal) result is kept.
        """
        relation, pending = self._state
        if pending:
            for predicate in pending:
                relation = select(relation, predicate)
            self._state = (relation, ())
        return relation

    def row_bound(self) -> Tuple[int, int]:
        """``(rows, σ passes pending)`` without realizing: while σ is pending,
        the parent's row count (σ only drops rows)."""
        relation, pending = self._state
        return len(relation), len(pending)

    def selected(self, predicate) -> "PartialResult":
        """σ by a Σ predicate (:meth:`~repro.analytics.sigma.Sigma.predicate`),
        deferred until :attr:`storage` is read; over a deferred partial the
        two selections chain on the one parent relation."""
        relation, pending = self._state
        return self._pending(relation, (*pending, predicate))

    def _pending(self, relation: Relation, pending: tuple) -> "PartialResult":
        result = self.with_storage(relation)
        result._state = (relation, pending)
        return result

    @property
    def relation(self) -> Relation:
        """The decoded view of ``pres(Q)`` (lazily materialized, cached)."""
        if self._decoded is None:
            self._decoded = self.storage.to_rows("decode:pres").materialize()
        return self._decoded

    def with_storage(self, relation: Relation) -> "PartialResult":
        """Same roles, new storage: the ``pres`` a derivation produced from this one.

        Fact, key and measure keep their column names; the dimensions are
        whatever columns ``relation`` carries between the fact column and
        the key — a derivation may have dropped (DRILL-OUT) or added
        (DRILL-IN) some.  The layout check of the constructor applies.
        """
        return PartialResult(
            relation,
            fact_column=self.fact_column,
            dimension_columns=tuple(relation.columns[1:-2]),
            key_column=self.key_column,
            measure_column=self.measure_column,
        )

    def with_dictionary(self, dictionary) -> "PartialResult":
        """This partial read against ``dictionary`` (see
        :meth:`Relation.with_dictionary
        <repro.algebra.relation.Relation.with_dictionary>`), a pending σ kept."""
        relation, pending = self._state
        return self._pending(relation.with_dictionary(dictionary), pending)

    def __len__(self) -> int:
        return len(self.storage)

    def facts(self) -> set:
        """The set of distinct facts appearing in the partial result (decoded)."""
        storage = self.storage
        facts = storage.distinct_values(self.fact_column)
        decode = storage.column_decoder(self.fact_column)
        return facts if decode is None else {decode(fact) for fact in facts}

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"PartialResult(fact={self.fact_column!r}, dims={self.dimension_columns}, "
            f"{self.row_bound()} rows/pending σ)"
        )


class CubeAnswer:
    """``ans(Q, I)`` — the answer set of an AnQ (Definition 1).

    A thin wrapper over the answer relation ``(d₁, ..., dₙ, v)`` retaining
    the dimension/measure column roles.  The richer cube abstraction (cell
    lookup, pretty-printing, pivoting) is :class:`repro.olap.cube.Cube`,
    which is constructed from a ``CubeAnswer``.

    The answer is also where its **decoded form** lives: its decoded
    columns (:meth:`decoded_columns`) are gathered the first time a cube is
    constructed over the answer, the keyed cell map (:meth:`decoded_cells`)
    on the first keyed lookup, and both are shared, read-only, by every
    later cube — a cache entry holds its ``CubeAnswer``, so a hit decodes
    nothing.  An answer is never mutated (refresh and every rewriting build a
    new one), so the memos need no invalidation and go away with the answer;
    the two answers that *are* this one again take them along —
    :meth:`patched` (a delta refresh) and :meth:`with_dictionary` (the same
    cells in a later generation of the graph).
    """

    def __init__(self, relation: Relation, dimension_columns: Tuple[str, ...], measure_column: str):
        expected = (*dimension_columns, measure_column)
        if tuple(relation.columns) != expected:
            raise MaterializationError(
                f"answer relation columns {relation.columns} do not match the expected layout {expected}"
            )
        self._storage = relation
        self._columns: Optional[List[Sequence]] = None
        self._cells: Optional[Dict[Tuple, object]] = None
        self._comparable_cells: Optional[Dict[Tuple, List]] = None
        self.dimension_columns = dimension_columns
        self.measure_column = measure_column

    @property
    def storage(self) -> Relation:
        """The answer relation in its native value space (ids when engine-built)."""
        return self._storage

    def decoded_columns(self) -> List[Sequence]:
        """``[d₁, ..., dₙ, v]``, decoded in row order once (one term-table
        gather per encoded column on the columnar engine) and shared: treat
        them as read-only.  Two threads asking at once may both decode; either
        (equal) result may be kept."""
        columns = self._columns
        if columns is None:
            columns = self._columns = self._storage.decoded_columns()
        return columns

    @property
    def decoded(self) -> bool:
        """Whether the decoded columns are in hand: a cube over this answer decodes nothing."""
        return self._columns is not None

    def iter_cells(self) -> Iterator[Tuple[Tuple, object]]:
        """``((d₁, ..., dₙ), measure)`` per row, in row order, zipped from the decoded columns."""
        columns = self.decoded_columns()
        keys = zip(*columns[:-1]) if self.dimension_columns else repeat((), len(self._storage))
        return zip(keys, columns[-1])

    def decoded_cells(self) -> Dict[Tuple, object]:
        """``(d₁, ..., dₙ) → measure`` over decoded values, built from the
        decoded columns on the first keyed lookup and shared, like them:
        treat it as read-only; two threads may both build it, either kept."""
        cells = self._cells
        if cells is None:
            cells = self._cells = dict(self.iter_cells())
        return cells

    def patched(self, touched: Set[Tuple], regrouped: "CubeAnswer") -> "CubeAnswer":
        """This answer with the cells of the ``touched`` keys (id tuples over
        the dimensions) replaced by ``regrouped``'s (:meth:`Relation.splice_runs
        <repro.algebra.relation.Relation.splice_runs>`) — what a delta refresh builds.

        The decoded forms held are carried, so only the regrouped cells are
        decoded: the columns are spliced by the runs the relation's splice
        took; a built map is copied with the same cells swapped (regrouped
        ones last)."""
        dimensions = self.dimension_columns
        relation, _, runs, rows = self._storage.splice_runs(dimensions, touched, regrouped.storage)
        answer = CubeAnswer(relation, dimensions, self.measure_column)
        columns = self._columns
        if columns is not None:
            fresh = CubeAnswer(rows, dimensions, self.measure_column)
            answer._columns = [_spliced(old, new, runs) for old, new in zip(columns, fresh.decoded_columns())]
            if self._cells is not None:
                cells = dict(self._cells)
                for lo, hi, _, _ in zip(*runs):
                    for position in range(lo, hi):
                        del cells[tuple(column[position] for column in columns[:-1])]
                cells.update(fresh.iter_cells())
                assert len(cells) == len(relation), "carried cell map out of step with ans(Q)"
                answer._cells = cells
        return answer

    def with_dictionary(self, dictionary) -> "CubeAnswer":
        """This answer read against ``dictionary`` (see
        :meth:`Relation.with_dictionary
        <repro.algebra.relation.Relation.with_dictionary>`), decoded forms shared."""
        answer = CubeAnswer(
            self._storage.with_dictionary(dictionary), self.dimension_columns, self.measure_column
        )
        answer._columns, answer._cells = self._columns, self._cells
        answer._comparable_cells = self._comparable_cells
        return answer

    def comparable_cells(self) -> Dict[Tuple, List]:
        """The cells keyed through the literal-to-Python conversion (built
        once), each key → the measures of every cell converting to it, in
        cell order: what finds ``cube.cell(28, "Madrid")`` under typed
        literals and what ``same_cells`` compares."""
        index = self._comparable_cells
        if index is None:
            index = {}
            for key, measure in self.iter_cells():
                index.setdefault(tuple(map(comparable, key)), []).append(measure)
            self._comparable_cells = index
        return index

    @property
    def relation(self) -> Relation:
        """The decoded answer relation ``(d₁, ..., dₙ, v)``, zipped from the decoded columns."""
        return Relation.adopt(self._storage.columns, list(zip(*self.decoded_columns())))

    def __len__(self) -> int:
        return len(self._storage)

    @property
    def columns(self) -> Tuple[str, ...]:
        return self._storage.columns

    def __repr__(self) -> str:  # pragma: no cover
        return f"CubeAnswer(dims={self.dimension_columns}, {len(self._storage)} cells)"


def _spliced(column: Sequence, fresh: Sequence, runs) -> list:
    """``column`` with its runs ``[lo, hi)`` replaced, each, by ``fresh[at:to]``
    (:meth:`Relation.splice_runs <repro.algebra.relation.Relation.splice_runs>`)."""
    result, start = [], 0
    for lo, hi, at, to in zip(*runs):
        result += column[start:lo]
        result += fresh[at:to]
        start = hi
    result += column[start:]
    return result


class MaterializedQueryResults:
    """Everything materialized while answering a query ``Q``: ``ans(Q)`` and ``pres(Q)``.

    The OLAP session stores one of these per executed query, always
    complete — the paper assumes ``pres(Q)`` "has been materialized and
    stored as part of the evaluation of the original query".  The rewriting
    engine derives ``pres(Q_T)`` from ``partial`` (Proposition 1's SLICE/DICE
    shortcut reads ``answer``, and leaves ``partial`` a deferred σ over the
    origin's), delta maintenance patches both.
    """

    def __init__(self, query, answer: CubeAnswer, partial: PartialResult):
        self.query = query
        self.answer = answer
        self.partial = partial

    def with_dictionary(self, dictionary) -> "MaterializedQueryResults":
        """The same results bound to ``dictionary`` — how a cache entry
        crosses to the next generation of its graph (no copy, cells shared)."""
        return MaterializedQueryResults(
            self.query, self.answer.with_dictionary(dictionary), self.partial.with_dictionary(dictionary)
        )

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"MaterializedQueryResults({self.query.name}, "
            f"ans: {len(self.answer)} cells, pres: {self.partial!r})"
        )
