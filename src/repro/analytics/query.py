"""Analytical queries (AnQ) and extended analytical queries.

An analytical query ``Q :- ⟨c(x, d₁, ..., dₙ), m(x, v), ⊕⟩`` consists of

* a **classifier** ``c``: a rooted BGP query with set semantics whose head
  lists the fact variable ``x`` followed by the dimension variables;
* a **measure** ``m``: a rooted BGP query with bag semantics whose head is
  ``(x, v)``, rooted in the *same* variable ``x``;
* an **aggregation function** ⊕.

An *extended* AnQ (Definition 2) additionally carries a Σ function
restricting dimension values; a standard AnQ is simply an extended AnQ with
the unrestricted Σ, so this module uses a single class for both.

Validation performed at construction:

* classifier arity ≥ 1 and measure arity = 2;
* classifier and measure are rooted in the same (identically named) fact
  variable;
* the dimension names are distinct from the fact variable, from the measure
  value variable and from the reserved key column name ``"k"``;
* Σ ranges exactly over the classifier's dimensions;
* the aggregation function is known to the aggregate registry;
* optionally (when a schema is supplied) classifier and measure are checked
  to be homomorphic to the analytical schema.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Optional, Sequence, Tuple, Union

from repro.errors import QueryDefinitionError
from repro.algebra.aggregates import AggregateFunction, get_aggregate
from repro.rdf.terms import Variable
from repro.bgp.query import BGPQuery
from repro.analytics.schema import AnalyticalSchema
from repro.analytics.sigma import DimensionRestriction, Sigma

if TYPE_CHECKING:
    from repro.olap.hierarchy import DimensionHierarchy

__all__ = ["AnalyticalQuery", "RollStage", "KEY_COLUMN", "canonical_bgp_key"]

#: Reserved column name for the ``newk()`` key of extended measure results.
KEY_COLUMN = "k"

def canonical_bgp_key(query: BGPQuery) -> str:
    """Canonical text of a BGP query: ordered head, sorted body atoms.

    Body order is semantically irrelevant, so atoms are sorted; variable
    names matter (they name answer columns) and are kept as-is.
    """
    head = ",".join(f"?{variable.name}" for variable in query.head)
    atoms = sorted(
        " ".join(
            f"?{term.name}" if isinstance(term, Variable) else term.n3()
            for term in pattern.as_tuple()
        )
        for pattern in query.body
    )
    return f"({head}):-{'&'.join(atoms)}"


class RollStage:
    """One ROLL-UP step in a query's hierarchy lattice position.

    A rolled-up query remembers *how* it was coarsened: the dimension that
    was rolled, the hierarchy that mapped its values, and the Σ that was in
    effect **before** the roll (i.e. at the finer granularity).  The stack
    of stages identifies the query's position in the hierarchy lattice and
    lets the planner answer it from any cached finer-grained cube.
    """

    __slots__ = ("dimension", "hierarchy", "sigma_before")

    def __init__(self, dimension: str, hierarchy: "DimensionHierarchy", sigma_before: Sigma):
        # Imported here: repro.olap sits above the analytics layer.
        from repro.olap.hierarchy import DimensionHierarchy

        if not isinstance(hierarchy, DimensionHierarchy):
            raise QueryDefinitionError(
                f"a RollStage hierarchy must be a DimensionHierarchy, got {type(hierarchy).__name__}"
            )
        self.dimension = dimension
        self.hierarchy = hierarchy
        self.sigma_before = sigma_before

    def canonical_token(self) -> str:
        """Value-based identity token for cache keys (see ``olap.cache``)."""
        sigma_part = ";".join(
            f"{name}->{token}" for name, token in self.sigma_before.canonical_tokens()
        )
        return f"{self.dimension}^{self.hierarchy.canonical_token()}^sigma[{sigma_part}]"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RollStage):
            return NotImplemented
        return self.canonical_token() == other.canonical_token()

    def __repr__(self) -> str:  # pragma: no cover
        return f"RollStage({self.dimension} via {self.hierarchy.name})"


class AnalyticalQuery:
    """An (extended) analytical query ⟨c_Σ, m, ⊕⟩ over an analytical schema.

    Parameters
    ----------
    classifier:
        The classifier BGP query; its head is ``(x, d₁, ..., dₙ)``.
    measure:
        The measure BGP query; its head is ``(x, v)``.
    aggregate:
        Aggregation function name (``"count"``, ``"sum"``, ``"avg"``, ...)
        or an :class:`~repro.algebra.aggregates.AggregateFunction`.
    sigma:
        Optional Σ restriction; defaults to the unrestricted Σ over the
        classifier's dimensions.
    schema:
        Optional :class:`~repro.analytics.schema.AnalyticalSchema`; when
        given, classifier and measure are checked to be homomorphic to it.
    name:
        Display name of the query (``"Q"`` by default) — the one attribute
        that may be reassigned: the others make up the canonical keys
        (:attr:`canonical_key`, :attr:`core_key`), derived once and held.
    """

    def __init__(
        self,
        classifier: BGPQuery,
        measure: BGPQuery,
        aggregate: Union[str, AggregateFunction],
        sigma: Optional[Sigma] = None,
        schema: Optional[AnalyticalSchema] = None,
        name: str = "Q",
        rollup: Tuple["RollStage", ...] = (),
    ):
        if classifier.arity() < 1:
            raise QueryDefinitionError("the classifier must have at least the fact variable in its head")
        if measure.arity() != 2:
            raise QueryDefinitionError(
                f"the measure query must be binary (fact, value); got arity {measure.arity()}"
            )

        fact_variable = classifier.head[0]
        measure_fact_variable = measure.head[0]
        if fact_variable != measure_fact_variable:
            raise QueryDefinitionError(
                f"classifier and measure must be rooted in the same variable; got "
                f"?{fact_variable.name} and ?{measure_fact_variable.name}"
            )
        classifier.require_rooted()
        measure.require_rooted()
        measure_variable = measure.head[1]
        if measure_variable.name in (fact_variable.name, KEY_COLUMN):
            raise QueryDefinitionError(
                f"the measure variable ?{measure_variable.name} clashes with a reserved name"
            )
        if schema is not None:
            schema.check_homomorphic(classifier)
            schema.check_homomorphic(measure)
        self._bind(name, classifier, measure, get_aggregate(aggregate), sigma, schema, rollup)

    def _bind(self, name, classifier, measure, aggregate, sigma, schema, rollup) -> "AnalyticalQuery":
        """Check the dimension names, Σ and the rollup stages against the
        classifier's head, then set every attribute — the only write a query takes."""
        dimension_names = tuple(variable.name for variable in classifier.head[1:])
        reserved = {classifier.head[0].name, measure.head[1].name, KEY_COLUMN}
        clashes = [name_ for name_ in dimension_names if name_ in reserved]
        if clashes:
            raise QueryDefinitionError(
                f"dimension names {clashes} clash with the fact variable, the measure variable "
                f"or the reserved key column {KEY_COLUMN!r}"
            )
        if sigma is None:
            sigma = Sigma(dimension_names)
        elif tuple(sigma.dimensions) != dimension_names:
            raise QueryDefinitionError(
                f"Σ ranges over {tuple(sigma.dimensions)} but the classifier dimensions are "
                f"{dimension_names}"
            )
        rollup = tuple(rollup)
        for stage in rollup:
            if not isinstance(stage, RollStage):
                raise QueryDefinitionError(
                    f"rollup stages must be RollStage instances, got {type(stage).__name__}"
                )
            if stage.dimension not in dimension_names:
                raise QueryDefinitionError(
                    f"rollup stage rolls {stage.dimension!r} which is not a dimension; "
                    f"dimensions are {dimension_names}"
                )
            if tuple(stage.sigma_before.dimensions) != dimension_names:
                raise QueryDefinitionError(
                    f"rollup stage Σ ranges over {tuple(stage.sigma_before.dimensions)} "
                    f"but the classifier dimensions are {dimension_names}"
                )
        vars(self).update(
            name=name, classifier=classifier, measure=measure, aggregate=aggregate,
            sigma=sigma, schema=schema, rollup=rollup,
        )
        return self

    def __setattr__(self, attribute: str, value: object) -> None:
        if attribute != "name":
            raise AttributeError(f"AnalyticalQuery.{attribute} is read-only; derive a new query")
        object.__setattr__(self, attribute, value)

    def _derived(self, sigma: Optional[Sigma], name: str, rollup=()) -> "AnalyticalQuery":
        """This query's classifier, measure and aggregate (checked when it was
        built) under another Σ and rollup stack; the core key carries over."""
        query = AnalyticalQuery.__new__(AnalyticalQuery)._bind(
            name, self.classifier, self.measure, self.aggregate, sigma, self.schema, rollup
        )
        if "core_key" in vars(self):
            vars(query)["core_key"] = self.core_key
        return query

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    @cached_property
    def core_key(self) -> str:
        """The Σ-independent part of the canonical form (classifier, measure,
        aggregate): the planner's scan for rewrite sources matches on it."""
        classifier, measure = canonical_bgp_key(self.classifier), canonical_bgp_key(self.measure)
        return f"c:{classifier}|m:{measure}|agg:{self.aggregate.name}"

    @cached_property
    def canonical_key(self) -> str:
        """The full canonical form: core key, rollup-stage tokens (the
        lattice position: dimension, hierarchy and finer-level Σ per stage),
        Σ value tokens.  Display names are excluded: two navigation paths
        reaching the same analytical query share cached results."""
        key = self.core_key
        for level, stage in enumerate(self.rollup):
            key += f"|roll[{level}]:{stage.canonical_token()}"
        sigma = ";".join(f"{name}->{token}" for name, token in self.sigma.canonical_tokens())
        return key + "|sigma:" + sigma

    @property
    def fact_variable(self) -> Variable:
        """The variable ``x`` to which facts are bound."""
        return self.classifier.head[0]

    @property
    def dimensions(self) -> Tuple[Variable, ...]:
        """The dimension variables ``d₁, ..., dₙ``."""
        return self.classifier.head[1:]

    @property
    def dimension_names(self) -> Tuple[str, ...]:
        return tuple(variable.name for variable in self.dimensions)

    @property
    def measure_variable(self) -> Variable:
        """The measure value variable ``v``."""
        return self.measure.head[1]

    @property
    def arity(self) -> int:
        """The number of dimensions of the cube this query defines."""
        return len(self.dimensions)

    # ------------------------------------------------------------------
    # hierarchy lattice
    # ------------------------------------------------------------------

    def base_query(self) -> "AnalyticalQuery":
        """The finest-granularity query under the rollup stack (self if unrolled)."""
        if not self.rollup:
            return self
        return self._derived(self.rollup[0].sigma_before, f"{self.name}@base")

    def rollup_prefix(self, count: int) -> "AnalyticalQuery":
        """The lattice ancestor after only the first ``count`` rollup stages.

        ``rollup_prefix(0)`` is :meth:`base_query`;
        ``rollup_prefix(len(self.rollup))`` is the query itself.
        """
        if count < 0 or count > len(self.rollup):
            raise QueryDefinitionError(
                f"rollup prefix length {count} out of range 0..{len(self.rollup)}"
            )
        if count == len(self.rollup):
            return self
        return self._derived(
            self.rollup[count].sigma_before, f"{self.name}@lvl{count}", self.rollup[:count]
        )

    def with_rollup(self, dimension: str, hierarchy: "DimensionHierarchy", name: Optional[str] = None) -> "AnalyticalQuery":
        """Push a ROLL-UP stage: coarsen ``dimension`` through ``hierarchy``.

        The current Σ is recorded on the stage (it restricts the *finer*
        values); the new query's Σ resets the rolled dimension to its full
        (coarse) domain.
        """
        if dimension not in self.dimension_names:
            raise QueryDefinitionError(
                f"cannot roll up {dimension!r}; dimensions are {self.dimension_names}"
            )
        stage = RollStage(dimension, hierarchy, self.sigma)
        sigma = self.sigma.restrict(dimension, DimensionRestriction.full())
        return self._derived(sigma, name or self.name, self.rollup + (stage,))

    def without_last_rollup(self, name: Optional[str] = None) -> "AnalyticalQuery":
        """Pop the top ROLL-UP stage (DRILL-DOWN), restoring the finer Σ."""
        if not self.rollup:
            raise QueryDefinitionError(f"query {self.name!r} has no rollup stage to drop")
        finer = self.rollup_prefix(len(self.rollup) - 1)
        if name is not None:
            finer.name = name
        return finer

    # ------------------------------------------------------------------
    # transformation helpers (used by the OLAP operations)
    # ------------------------------------------------------------------

    def with_sigma(self, sigma: Sigma, name: Optional[str] = None) -> "AnalyticalQuery":
        """Return the same query with a different Σ (SLICE / DICE)."""
        return self._derived(sigma, name or self.name, self.rollup)

    def with_dimensions(
        self,
        dimension_names: Sequence[str],
        sigma: Optional[Sigma] = None,
        name: Optional[str] = None,
    ) -> "AnalyticalQuery":
        """Return a query whose classifier head is ``(x, dims...)`` with the same body.

        Used by DRILL-OUT (removing dimensions) and DRILL-IN (adding a body
        variable as a new dimension).  Every requested dimension must occur
        in the classifier body.
        """
        if self.rollup:
            raise QueryDefinitionError(
                f"query {self.name!r} carries rollup stages; drill down to the base "
                "granularity before changing its dimensions"
            )
        head = [self.fact_variable] + [Variable(dimension) for dimension in dimension_names]
        body_variable_names = {variable.name for variable in self.classifier.variables()}
        missing = [dimension for dimension in dimension_names if dimension not in body_variable_names]
        if missing:
            raise QueryDefinitionError(
                f"dimensions {missing} do not occur in the classifier body"
            )
        classifier = self.classifier.with_head(head, name=self.classifier.name)
        return AnalyticalQuery(
            classifier,
            self.measure,
            self.aggregate,
            sigma=sigma,
            schema=self.schema,
            name=name or self.name,
        )

    # ------------------------------------------------------------------
    # presentation
    # ------------------------------------------------------------------

    def describe(self) -> str:
        """Multi-line description in the paper's notation."""
        lines = [
            f"{self.name} :- ⟨c_Σ(?{self.fact_variable.name}, "
            + ", ".join(f"?{name}" for name in self.dimension_names)
            + f"), m(?{self.fact_variable.name}, ?{self.measure_variable.name}), "
            + f"{self.aggregate.name}⟩",
            f"  classifier: {self.classifier.to_text()}",
            f"  measure:    {self.measure.to_text()}",
            f"  {self.sigma.describe()}",
        ]
        for level, stage in enumerate(self.rollup, start=1):
            lines.append(
                f"  roll-up[{level}]: {stage.dimension} via {stage.hierarchy.name}"
            )
        return "\n".join(lines)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AnalyticalQuery):
            return NotImplemented
        return (
            self.classifier == other.classifier
            and self.measure == other.measure
            and self.aggregate.name == other.aggregate.name
            and self.sigma == other.sigma
            and self.rollup == other.rollup
        )

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"AnalyticalQuery({self.name}: {len(self.dimensions)} dimensions, "
            f"aggregate={self.aggregate.name})"
        )
