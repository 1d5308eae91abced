"""Bag-relational algebra: relations, operators, predicates, aggregation.

This package provides the relational machinery in which the paper states
its OLAP rewriting algorithms — exactly the operators the pipeline runs:

* :mod:`repro.algebra.relation` — the :class:`Relation` bag-of-rows table
  and its id-space variant :class:`IdRelation` (dictionary-encoded columns,
  late materialization);
* :mod:`repro.algebra.operators` — σ, π, δ, ⋈, ×, ∪, rename;
* :mod:`repro.algebra.expressions` — :func:`comparable`, the value
  conversion every comparison (Σ's σ among them) goes through;
* :mod:`repro.algebra.aggregates` — ⊕ functions with distributivity metadata;
* :mod:`repro.algebra.grouping` — the γ group-and-aggregate operator.
"""

from repro.algebra.aggregates import (
    AVG,
    COUNT,
    COUNT_DISTINCT,
    MAX,
    MIN,
    SUM,
    AggregateFunction,
    AggregateRegistry,
    default_registry,
    get_aggregate,
)
from repro.algebra.expressions import comparable
from repro.algebra.grouping import group_aggregate
from repro.algebra.operators import (
    cross_product,
    dedup,
    join_on,
    project,
    rename,
    select,
    union_all,
)
from repro.algebra.relation import IdRelation, Relation, relation_like

__all__ = [
    "Relation",
    "IdRelation",
    "relation_like",
    "select",
    "project",
    "dedup",
    "rename",
    "join_on",
    "cross_product",
    "union_all",
    "group_aggregate",
    "AggregateFunction",
    "AggregateRegistry",
    "default_registry",
    "get_aggregate",
    "COUNT",
    "COUNT_DISTINCT",
    "SUM",
    "AVG",
    "MIN",
    "MAX",
    "comparable",
]
