"""OLAP operations on RDF cubes: SLICE, DICE, DRILL-OUT, DRILL-IN.

Each operation is modelled as a *query transformation* (Section 2 of the
paper): applied to an extended analytical query ``Q`` it produces a new
extended analytical query ``Q_T``.  The transformations only touch the
classifier head and/or the Σ function; the measure and the aggregation
function are untouched.

The operations validate their applicability:

* SLICE / DICE dimensions must be dimensions of ``Q`` (in the classifier
  head);
* DRILL-OUT dimensions must be dimensions of ``Q``, and at least one
  dimension may remain or not (drilling out every dimension yields a global,
  zero-dimensional cube);
* DRILL-IN dimensions must be **non-distinguished** variables of the
  classifier body (they carry the extra detail that the coarser query
  projected away).
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import InvalidOperationError
from repro.analytics.query import AnalyticalQuery
from repro.analytics.sigma import DimensionRestriction
from repro.olap.hierarchy import DimensionHierarchy

__all__ = ["OLAPOperation", "Slice", "Dice", "DrillOut", "DrillIn", "RollUp", "DrillDown", "compose"]


class OLAPOperation:
    """Base class of OLAP operations (query transformations)."""

    #: Short operation name used in reports and benchmark tables.
    kind: str = "noop"

    def apply(self, query: AnalyticalQuery) -> AnalyticalQuery:
        """Return the transformed query ``Q_T``."""
        raise NotImplementedError

    def validate(self, query: AnalyticalQuery) -> None:
        """Raise :class:`InvalidOperationError` when not applicable to ``query``."""
        raise NotImplementedError

    def describe(self) -> str:
        return self.kind

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}({self.describe()})"


def _require_dimensions(query: AnalyticalQuery, dimensions: Iterable[str], operation: str) -> None:
    known = set(query.dimension_names)
    unknown = [dimension for dimension in dimensions if dimension not in known]
    if unknown:
        raise InvalidOperationError(
            f"{operation} references {unknown} which are not dimensions of query "
            f"{query.name!r}; its dimensions are {sorted(known)}"
        )


class Slice(OLAPOperation):
    """SLICE: bind one aggregation dimension to a single value.

    ``Slice("dage", 35)`` applied to the blogger query of Example 1 yields
    the extended query whose Σ maps ``dage`` to ``{35}``.
    """

    kind = "slice"

    def __init__(self, dimension: str, value: object):
        self.dimension = dimension
        self.value = value

    def validate(self, query: AnalyticalQuery) -> None:
        _require_dimensions(query, [self.dimension], "SLICE")

    def apply(self, query: AnalyticalQuery) -> AnalyticalQuery:
        self.validate(query)
        restriction = DimensionRestriction.to_value(self.value)
        sigma = query.sigma.restrict(self.dimension, query.sigma[self.dimension].intersect(restriction))
        return query.with_sigma(sigma, name=f"{query.name}_slice_{self.dimension}")

    def describe(self) -> str:
        return f"slice {self.dimension} = {self.value}"


class Dice(OLAPOperation):
    """DICE: constrain several dimensions to sets of values (or ranges).

    ``restrictions`` maps dimension names to one of:

    * a :class:`~repro.analytics.sigma.DimensionRestriction`;
    * a collection of allowed values;
    * a ``(low, high)`` tuple interpreted as an inclusive range.
    """

    kind = "dice"

    def __init__(self, restrictions: Mapping[str, object]):
        if not restrictions:
            raise InvalidOperationError("DICE requires at least one dimension restriction")
        self.restrictions: Dict[str, DimensionRestriction] = {}
        for dimension, specification in restrictions.items():
            self.restrictions[dimension] = self._coerce(specification)

    @staticmethod
    def _coerce(specification: object) -> DimensionRestriction:
        if isinstance(specification, DimensionRestriction):
            return specification
        if isinstance(specification, tuple) and len(specification) == 2:
            return DimensionRestriction.to_range(specification[0], specification[1])
        if isinstance(specification, (list, set, frozenset)):
            return DimensionRestriction.to_values(specification)
        return DimensionRestriction.to_value(specification)

    def validate(self, query: AnalyticalQuery) -> None:
        _require_dimensions(query, self.restrictions, "DICE")

    def apply(self, query: AnalyticalQuery) -> AnalyticalQuery:
        self.validate(query)
        sigma = query.sigma
        for dimension, restriction in self.restrictions.items():
            sigma = sigma.restrict(dimension, sigma[dimension].intersect(restriction))
        return query.with_sigma(sigma, name=f"{query.name}_dice")

    def describe(self) -> str:
        parts = []
        for dimension, restriction in self.restrictions.items():
            description = restriction.description
            if restriction.values is not None and len(restriction.values) > 4:
                description = f"{{{len(restriction.values)} values}}"
            parts.append(f"{dimension} ∈ {description}")
        return "dice " + ", ".join(parts)


class DrillOut(OLAPOperation):
    """DRILL-OUT: remove dimensions from the classifier head (coarsen the cube)."""

    kind = "drill-out"

    def __init__(self, dimensions: Union[str, Sequence[str]]):
        if isinstance(dimensions, str):
            dimensions = [dimensions]
        self.dimensions: Tuple[str, ...] = tuple(dimensions)
        if not self.dimensions:
            raise InvalidOperationError("DRILL-OUT requires at least one dimension")
        if len(set(self.dimensions)) != len(self.dimensions):
            raise InvalidOperationError(f"duplicate dimensions in DRILL-OUT: {self.dimensions}")

    def validate(self, query: AnalyticalQuery) -> None:
        _require_dimensions(query, self.dimensions, "DRILL-OUT")

    def apply(self, query: AnalyticalQuery) -> AnalyticalQuery:
        self.validate(query)
        removed = set(self.dimensions)
        remaining = [name for name in query.dimension_names if name not in removed]
        sigma = query.sigma.without(self.dimensions)
        return query.with_dimensions(remaining, sigma=sigma, name=f"{query.name}_drillout")

    def describe(self) -> str:
        return "drill-out " + ", ".join(self.dimensions)


class DrillIn(OLAPOperation):
    """DRILL-IN: add classifier-body variables as new dimensions (refine the cube)."""

    kind = "drill-in"

    def __init__(self, dimensions: Union[str, Sequence[str]]):
        if isinstance(dimensions, str):
            dimensions = [dimensions]
        self.dimensions: Tuple[str, ...] = tuple(dimensions)
        if not self.dimensions:
            raise InvalidOperationError("DRILL-IN requires at least one dimension")
        if len(set(self.dimensions)) != len(self.dimensions):
            raise InvalidOperationError(f"duplicate dimensions in DRILL-IN: {self.dimensions}")

    def validate(self, query: AnalyticalQuery) -> None:
        existing = set(query.dimension_names) | {query.fact_variable.name}
        classifier_variables = {variable.name for variable in query.classifier.variables()}
        for dimension in self.dimensions:
            if dimension in existing:
                raise InvalidOperationError(
                    f"DRILL-IN dimension {dimension!r} is already a dimension (or the fact "
                    f"variable) of query {query.name!r}"
                )
            if dimension not in classifier_variables:
                raise InvalidOperationError(
                    f"DRILL-IN dimension {dimension!r} is not a variable of the classifier body "
                    f"of query {query.name!r}; drill-in can only expose existing body variables"
                )

    def apply(self, query: AnalyticalQuery) -> AnalyticalQuery:
        self.validate(query)
        new_dimension_names = tuple(query.dimension_names) + self.dimensions
        sigma = query.sigma.with_new(self.dimensions)
        return query.with_dimensions(new_dimension_names, sigma=sigma, name=f"{query.name}_drillin")

    def describe(self) -> str:
        return "drill-in " + ", ".join(self.dimensions)


class RollUp(OLAPOperation):
    """ROLL-UP: coarsen one dimension through a concept hierarchy.

    Unlike DRILL-OUT (which removes the dimension entirely), ROLL-UP keeps
    the dimension but replaces its values by their hierarchy parents.  The
    transformed query records the stage on its rollup stack (see
    :class:`~repro.analytics.query.RollStage`), giving it a canonical
    position in the hierarchy lattice that the planner and cache key on.
    """

    kind = "roll-up"

    def __init__(self, dimension: str, hierarchy: DimensionHierarchy):
        if not isinstance(hierarchy, DimensionHierarchy):
            raise InvalidOperationError(
                f"ROLL-UP requires a DimensionHierarchy, got {type(hierarchy).__name__}"
            )
        self.dimension = dimension
        self.hierarchy = hierarchy

    def validate(self, query: AnalyticalQuery) -> None:
        _require_dimensions(query, [self.dimension], "ROLL-UP")

    def apply(self, query: AnalyticalQuery) -> AnalyticalQuery:
        self.validate(query)
        return query.with_rollup(
            self.dimension, self.hierarchy, name=f"{query.name}_rollup_{self.dimension}"
        )

    def describe(self) -> str:
        return f"roll-up {self.dimension} via {self.hierarchy.name}"


class DrillDown(OLAPOperation):
    """DRILL-DOWN: undo the most recent ROLL-UP, restoring the finer level.

    Only applicable to queries with at least one rollup stage; when a
    ``dimension`` is given it must match the top stage's dimension.
    """

    kind = "drill-down"

    def __init__(self, dimension: Optional[str] = None):
        self.dimension = dimension

    def validate(self, query: AnalyticalQuery) -> None:
        if not query.rollup:
            raise InvalidOperationError(
                f"DRILL-DOWN requires a rolled-up query; {query.name!r} has no rollup stage"
            )
        top = query.rollup[-1]
        if self.dimension is not None and self.dimension != top.dimension:
            raise InvalidOperationError(
                f"DRILL-DOWN on {self.dimension!r} does not match the top rollup stage "
                f"(which rolled {top.dimension!r}); drill down in stack order"
            )

    def apply(self, query: AnalyticalQuery) -> AnalyticalQuery:
        self.validate(query)
        return query.without_last_rollup(name=f"{query.name}_drilldown")

    def describe(self) -> str:
        return "drill-down" + (f" {self.dimension}" if self.dimension else "")


def compose(query: AnalyticalQuery, operations: Sequence[OLAPOperation]) -> AnalyticalQuery:
    """Apply a sequence of OLAP operations left to right."""
    result = query
    for operation in operations:
        result = operation.apply(result)
    return result
