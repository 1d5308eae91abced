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
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import MaterializationError
from repro.algebra.expressions import comparable
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
        self._storage = relation
        self._decoded: Optional[Relation] = None
        self.fact_column = fact_column
        self.dimension_columns = dimension_columns
        self.key_column = key_column
        self.measure_column = measure_column

    @property
    def storage(self) -> Relation:
        """The relation in its native value space (ids when engine-built)."""
        return self._storage

    @property
    def relation(self) -> Relation:
        """The decoded view of ``pres(Q)`` (lazily materialized, cached)."""
        if self._decoded is None:
            self._decoded = self._storage.to_rows("decode:pres").materialize()
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

    def __len__(self) -> int:
        return len(self._storage)

    @property
    def columns(self) -> Tuple[str, ...]:
        return self._storage.columns

    def facts(self) -> set:
        """The set of distinct facts appearing in the partial result (decoded)."""
        facts = self._storage.distinct_values(self.fact_column)
        decode = self._storage.column_decoder(self.fact_column)
        return facts if decode is None else {decode(fact) for fact in facts}

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"PartialResult(fact={self.fact_column!r}, dims={self.dimension_columns}, "
            f"{len(self._storage)} rows)"
        )


class CubeAnswer:
    """``ans(Q, I)`` — the answer set of an AnQ (Definition 1).

    A thin wrapper over the answer relation ``(d₁, ..., dₙ, v)`` retaining
    the dimension/measure column roles.  The richer cube abstraction (cell
    lookup, pretty-printing, pivoting) is :class:`repro.olap.cube.Cube`,
    which is constructed from a ``CubeAnswer``.

    The answer is also where its **decoded form** lives: the cell map
    (:meth:`decoded_cells`) is built the first time a cube is constructed
    over the answer and shared, read-only, by every later one — a cache
    entry holds its ``CubeAnswer``, so a hit decodes nothing.  An answer is
    never mutated (refresh and every rewriting build a new one), so the memo
    needs no invalidation and goes away with the answer; the two answers
    that *are* this one again take it along — :meth:`patched` (a delta
    refresh: the untouched cells are carried, only the touched ones are
    decoded) and :meth:`with_dictionary` (the same cells in a later
    generation of the graph).
    """

    def __init__(self, relation: Relation, dimension_columns: Tuple[str, ...], measure_column: str):
        expected = (*dimension_columns, measure_column)
        if tuple(relation.columns) != expected:
            raise MaterializationError(
                f"answer relation columns {relation.columns} do not match the expected layout {expected}"
            )
        self._storage = relation
        self._decoded: Optional[Relation] = None
        self._cells: Optional[Dict[Tuple, object]] = None
        self._comparable_cells: Optional[Dict[Tuple, List]] = None
        self.dimension_columns = dimension_columns
        self.measure_column = measure_column

    @property
    def storage(self) -> Relation:
        """The answer relation in its native value space (ids when engine-built)."""
        return self._storage

    def decoded_cells(self) -> Dict[Tuple, object]:
        """``(d₁, ..., dₙ) → measure`` over decoded values, built once.

        Decoded column-wise in the answer's own storage, each distinct id
        once.  The returned dict is shared by every cube over this answer:
        treat it as read-only.  Two threads asking at once may both decode;
        they build equal maps and either may be the one kept.
        """
        cells = self._cells
        if cells is None:
            columns = self._storage.decoded_columns()  # (d₁, ..., dₙ, v): checked at construction
            keys = zip(*columns[:-1]) if self.dimension_columns else [()] * len(self._storage)
            cells = self._cells = dict(zip(keys, columns[-1]))
        return cells

    def patched(self, relation: Relation, replaced: Relation, regrouped: "CubeAnswer") -> "CubeAnswer":
        """The answer over ``relation`` = this one's cells minus ``replaced``
        (some of its rows), then ``regrouped``'s — what a delta refresh builds.

        When this answer was decoded, the new one inherits the cell map:
        copied, the replaced cells dropped, the regrouped ones decoded and
        appended — O(touched) decodes, in ``relation``'s row order.  An answer
        never decoded carries nothing.
        """
        answer = CubeAnswer(relation, self.dimension_columns, self.measure_column)
        if self._cells is not None:
            cells = dict(self._cells)
            for key in CubeAnswer(replaced, self.dimension_columns, self.measure_column).decoded_cells():
                del cells[key]
            cells.update(regrouped.decoded_cells())
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
        answer._decoded, answer._cells = self._decoded, self._cells
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
            for key, measure in self.decoded_cells().items():
                index.setdefault(tuple(map(comparable, key)), []).append(measure)
            self._comparable_cells = index
        return index

    @property
    def relation(self) -> Relation:
        """The decoded answer relation ``(d₁, ..., dₙ, v)`` (lazy, cached)."""
        if self._decoded is None:
            self._decoded = self._storage.materialize()
        return self._decoded

    def __len__(self) -> int:
        return len(self._storage)

    @property
    def columns(self) -> Tuple[str, ...]:
        return self._storage.columns

    def __repr__(self) -> str:  # pragma: no cover
        return f"CubeAnswer(dims={self.dimension_columns}, {len(self._storage)} cells)"


class MaterializedQueryResults:
    """Everything materialized while answering a query ``Q``: ``ans(Q)`` and ``pres(Q)``.

    The OLAP session stores one of these per executed query, always
    complete — the paper assumes ``pres(Q)`` "has been materialized and
    stored as part of the evaluation of the original query".  The rewriting
    engine derives ``pres(Q_T)`` from ``partial`` (Proposition 1's SLICE/DICE
    shortcut reads ``answer``), delta maintenance patches both.
    """

    def __init__(self, query, answer: CubeAnswer, partial: PartialResult):
        self.query = query
        self.answer = answer
        self.partial = partial

    def with_dictionary(self, dictionary) -> "MaterializedQueryResults":
        """The same results bound to ``dictionary`` — how a cache entry
        crosses to the next generation of its graph (no copy, cells shared)."""
        partial = self.partial
        return MaterializedQueryResults(
            self.query,
            self.answer.with_dictionary(dictionary),
            partial.with_storage(partial.storage.with_dictionary(dictionary)),
        )

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"MaterializedQueryResults({self.query.name}, "
            f"ans: {len(self.answer)} cells, pres: {len(self.partial)} rows)"
        )
