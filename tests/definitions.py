"""The paper's Definitions 1 and 3, computed literally, as test references.

The engine answers a cube by Equation (3) over ``pres(Q)`` (Definition 4,
:meth:`~repro.analytics.evaluator.AnalyticalQueryEvaluator.partial_result`).
These are the formulations Equation (3) is checked against; they run on the
evaluator's BGP solver, unlike :mod:`tests.naive_oracle`, which shares no
evaluation code with the engine at all:

* :func:`classifier_result` — ``c_Σ(I)``, the classifier answer restricted
  by Σ;
* :func:`measure_result` / :func:`extended_measure_result` — ``m(I)`` and
  ``mᵏ(I)`` (one fresh ``newk()`` key per measure row);
* :func:`intermediary_result` — ``int(Q)(I) = c ⋈ₓ m̄`` (Definition 3);
* :func:`answer_definition1` — ``ans(Q, I)`` by per-fact measure bags
  (Definition 1).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.algebra.operators import join_on, rename, select
from repro.algebra.relation import Relation, relation_like
from repro.analytics.answer import CubeAnswer, KeyGenerator
from repro.analytics.evaluator import AnalyticalQueryEvaluator
from repro.analytics.query import KEY_COLUMN, AnalyticalQuery
from repro.bgp.query import BGPQuery

__all__ = [
    "answer_definition1",
    "classifier_result",
    "extended_measure_result",
    "intermediary_result",
    "measure_bar",
    "measure_result",
]


def _classifier_ids(evaluator: AnalyticalQueryEvaluator, query: AnalyticalQuery) -> Relation:
    relation = evaluator.bgp_evaluator.evaluate_ids(query.classifier, semantics="set")
    if query.sigma.is_unrestricted():
        return relation
    return select(relation, query.sigma.predicate())


def _measure_ids(evaluator: AnalyticalQueryEvaluator, query: AnalyticalQuery) -> Relation:
    return evaluator.bgp_evaluator.evaluate_ids(query.measure, semantics="bag")


def classifier_result(evaluator: AnalyticalQueryEvaluator, query: AnalyticalQuery) -> Relation:
    """``c_Σ(I)``: the classifier answer (set semantics), restricted by Σ.

    The extended classifier is, by Definition 2, the union over all
    combinations of Σ values of the classifier with dimensions substituted;
    its answer equals the Σ-selection over the plain classifier answer,
    which is how it is computed here.
    """
    return _classifier_ids(evaluator, query).materialize()


def measure_result(evaluator: AnalyticalQueryEvaluator, query: AnalyticalQuery) -> Relation:
    """``m(I)``: the measure answer with bag semantics (one row per embedding)."""
    return _measure_ids(evaluator, query).materialize()


def extended_measure_result(
    evaluator: AnalyticalQueryEvaluator,
    query: AnalyticalQuery,
    key_generator: Optional[KeyGenerator] = None,
) -> Relation:
    """``mᵏ(I)``: the measure result with a fresh ``newk()`` key per tuple."""
    keys = key_generator or KeyGenerator()
    measure = _measure_ids(evaluator, query)
    return measure.prepend_keys(KEY_COLUMN, keys.take(len(measure))).materialize()


def measure_bar(query: AnalyticalQuery) -> BGPQuery:
    """The ``m̄`` query of Definition 3: the measure body, head = all body variables.

    The measure's head variables come first (in order), followed by the
    remaining body variables in sorted order, so the columns are predictable.
    """
    measure = query.measure
    remaining = sorted(measure.existential_variables(), key=lambda variable: variable.name)
    return BGPQuery(list(measure.head) + remaining, measure.body, name=f"{measure.name}_bar")


def intermediary_result(evaluator: AnalyticalQueryEvaluator, query: AnalyticalQuery) -> Relation:
    """``int(Q)(I) = c ⋈ₓ m̄`` (Definition 3).

    ``m̄`` has set semantics and exposes every variable of the measure body;
    measure body variables whose names collide with classifier columns
    (other than the fact variable) are renamed with an ``m_`` prefix to keep
    the join a pure fact-variable join.
    """
    fact = query.fact_variable.name
    classifier_relation = _classifier_ids(evaluator, query)
    bar = measure_bar(query)
    clashes = [
        variable.name
        for variable in bar.head
        if variable.name != fact and variable.name in classifier_relation.columns
    ]
    measure_relation = evaluator.bgp_evaluator.evaluate_ids(bar, semantics="set")
    if clashes:
        measure_relation = rename(measure_relation, {name: f"m_{name}" for name in clashes})
    return join_on(classifier_relation, measure_relation, [(fact, fact)]).materialize()


def answer_definition1(evaluator: AnalyticalQueryEvaluator, query: AnalyticalQuery) -> CubeAnswer:
    """Compute ``ans(Q, I)`` literally following Definition 1.

    For every classifier tuple ``⟨xʲ, d₁ʲ, ..., dₙʲ⟩`` build the bag
    ``qʲ(I)`` of measure values of ``xʲ``; facts with an empty bag do not
    contribute; group the classifier tuples by dimension values and
    aggregate the union of their facts' bags.  Intentionally the naive
    formulation — quadratic in the worst case.
    """
    classifier_relation = _classifier_ids(evaluator, query)
    measure_relation = _measure_ids(evaluator, query)
    measure_column = query.measure_variable.name
    measure_decoder = measure_relation.column_decoder(measure_column)
    measure_values: Dict[object, list] = {}
    for row in measure_relation:
        measure_values.setdefault(row[0], []).append(row[1])

    dimension_columns = query.dimension_names
    groups: Dict[Tuple, list] = {}
    for row in classifier_relation:
        bag = measure_values.get(row[0])
        if not bag:
            continue  # empty bag: the aggregated measure is undefined
        groups.setdefault(tuple(row[1:]), []).extend(bag)

    rows = []
    for key, values in groups.items():
        if measure_decoder is not None:
            values = [measure_decoder(value) for value in values]
        rows.append(key + (query.aggregate(values),))
    relation = relation_like(
        (*dimension_columns, measure_column),
        rows,
        classifier_relation,
        plain_columns=(measure_column,),
    )
    return CubeAnswer(relation, dimension_columns, measure_column)
