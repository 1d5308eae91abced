"""The :class:`Cube` abstraction over analytical-query answers.

``ans(Q)`` is "a cube of n dimensions, holding in each cube cell the
corresponding aggregate measure" (Section 2).  :class:`Cube` wraps the
answer relation with cell-level access, dimension introspection and
display helpers used by the examples and the CLI.

A cube is the **decoding boundary**: it leaves its constructor with its
cells decoded.  The decoded map belongs to the
:class:`~repro.analytics.answer.CubeAnswer`, so the decode is paid once per
answer — column-wise, per distinct id — and every further cube over the
same answer (a cache hit) shares it.
"""

from __future__ import annotations

from decimal import Decimal
from types import MappingProxyType
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import OLAPError
from repro.algebra.expressions import comparable
from repro.algebra.relation import Relation
from repro.analytics.answer import CubeAnswer
from repro.analytics.query import AnalyticalQuery

__all__ = ["Cube"]


class Cube:
    """An n-dimensional cube: dimension tuples mapped to aggregated measures."""

    def __init__(self, answer: CubeAnswer, query: Optional[AnalyticalQuery] = None):
        self._answer = answer
        self.query = query
        #: The session's history record of the operation that answered this
        #: cube (set by :class:`~repro.olap.session.OLAPSession`; None for a
        #: cube built directly from an answer).
        self.record = None
        # Decoded here, not on first access — but only the first cube over
        # an answer pays; the map is the answer's, shared and never mutated.
        self._cells: Dict[Tuple, object] = answer.decoded_cells()

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------

    @property
    def answer(self) -> CubeAnswer:
        return self._answer

    @property
    def relation(self) -> Relation:
        return self._answer.relation

    @property
    def dimensions(self) -> Tuple[str, ...]:
        return self._answer.dimension_columns

    @property
    def measure_column(self) -> str:
        return self._answer.measure_column

    @property
    def arity(self) -> int:
        return len(self.dimensions)

    def __len__(self) -> int:
        """Number of non-empty cells."""
        return len(self._cells)

    def dimension_values(self, dimension: str) -> set:
        """Distinct values appearing along one dimension."""
        if dimension not in self.dimensions:
            raise OLAPError(f"unknown dimension {dimension!r}; cube dimensions are {self.dimensions}")
        index = self.dimensions.index(dimension)
        return {key[index] for key in self._cells}

    # ------------------------------------------------------------------
    # cell access
    # ------------------------------------------------------------------

    def cells(self) -> Mapping[Tuple, object]:
        """Dimension-value tuples (in dimension order) → measures: a read-only
        view of the map every cube over this answer shares, not a copy."""
        return MappingProxyType(self._cells)

    def cell(self, *values, **named_values) -> object:
        """The measure of one cell, addressed positionally or by dimension name.

        Raises :class:`~repro.errors.OLAPError` when the cell is empty
        (no fact with those dimension values had a defined measure).
        """
        key = self._cell_key(values, named_values)
        if key in self._cells:
            return self._cells[key]
        # Second chance: compare via the literal-to-Python conversion so that
        # cube.cell(28, "Madrid") finds the cell keyed by typed literals.
        wanted = tuple(comparable(value) for value in key)
        try:
            return self._answer.comparable_cells()[wanted][0]  # the first cell of a key wins
        except KeyError:
            raise OLAPError(f"no cell for dimension values {key!r}") from None

    def get(self, *values, default=None, **named_values) -> object:
        """Like :meth:`cell` but returns ``default`` for empty cells."""
        try:
            return self.cell(*values, **named_values)
        except OLAPError:
            return default

    def _cell_key(self, values: Sequence, named_values: Mapping[str, object]) -> Tuple:
        if values and named_values:
            raise OLAPError("address a cell either positionally or by name, not both")
        if named_values:
            unknown = set(named_values) - set(self.dimensions)
            if unknown:
                raise OLAPError(f"unknown dimensions {sorted(unknown)}")
            missing = [name for name in self.dimensions if name not in named_values]
            if missing:
                raise OLAPError(f"missing dimension values for {missing}")
            return tuple(named_values[name] for name in self.dimensions)
        if len(values) != len(self.dimensions):
            raise OLAPError(
                f"expected {len(self.dimensions)} dimension values, got {len(values)}"
            )
        return tuple(values)

    def __iter__(self) -> Iterator[Tuple[Tuple, object]]:
        return iter(self._cells.items())

    # ------------------------------------------------------------------
    # comparison / display
    # ------------------------------------------------------------------

    def same_cells(self, other: "Cube", tolerance: float = 1e-9) -> bool:
        """True when both cubes have the same cells with (numerically) equal measures.

        Dimension values are compared through their Python conversion so a
        cube built by rewriting (whose keys may be raw literals) compares
        equal to one built from scratch.  Where several cells of a cube
        convert to one key, all their measures are matched, one to one.
        """
        if self.dimensions != other.dimensions:
            return False
        mine = self._answer.comparable_cells()
        theirs = other._answer.comparable_cells()
        if mine.keys() != theirs.keys():
            return False
        return all(_same_measures(measures, theirs[key], tolerance) for key, measures in mine.items())

    def to_text(self, max_rows: int = 20) -> str:
        """ASCII rendering of the cube (sorted for stable output)."""
        return self._answer.relation.sorted().to_text(max_rows=max_rows)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Cube(dims={self.dimensions}, cells={len(self._cells)})"


def _same_measures(measures: List, others: List, tolerance: float) -> bool:
    """True when the measures of one key's cells pair up one to one, both
    sides sorted (numbers by value, first): within ``tolerance`` where both
    are int or float, else exactly."""
    mine, theirs = (sorted(map(comparable, side), key=_measure_order) for side in (measures, others))
    return len(mine) == len(theirs) and all(
        not abs(float(value) - float(other)) > tolerance
        if isinstance(value, (int, float)) and isinstance(other, (int, float))
        else value == other
        for value, other in zip(mine, theirs)
    )


def _measure_order(value: object) -> Tuple:
    number = isinstance(value, (int, float, Decimal))
    return (not number, float(value) if number else repr(value))
