"""Property-based tests of the paper's propositions on random instances.

For randomly generated AnS instances (random multi-valued dimension
assignments and multi-valued measures), the rewriting-based answers must
coincide with from-scratch evaluation:

* Proposition 1 — SLICE / DICE via σ over ``ans(Q)``;
* Proposition 2 — DRILL-OUT via Algorithm 1 over ``pres(Q)``;
* Proposition 3 — DRILL-IN via Algorithm 2 over ``pres(Q)`` and the instance;
* Equation (3) — the relational pipeline agrees with the literal Definition 1
  semantics.

The random instances deliberately include facts with missing dimensions,
missing measures, duplicate measure values and several values per dimension —
the RDF-specific situations that make the naive relational rewritings wrong.
"""

from hypothesis import given, settings, strategies as st

from repro.rdf import EX, Graph, Literal, RDF, Triple
from repro.rdf.terms import Variable
from repro.rdf.triples import TriplePattern
from repro.bgp.query import BGPQuery
from repro.analytics.evaluator import AnalyticalQueryEvaluator
from repro.analytics.query import AnalyticalQuery
from repro.olap.cube import Cube
from repro.olap.operations import Dice, DrillIn, DrillOut, Slice
from repro.olap.rewriting import (
    drill_in_from_partial,
    drill_out_from_partial,
    slice_dice_from_answer,
)

from tests.definitions import answer_definition1

RDF_TYPE = RDF.term("type")

# --- random instance description ------------------------------------------
# Each fact is described by: (d1 values, d2 values, detail index or None,
# measure values).  Dimension values are small integers; measures too.

fact_strategy = st.tuples(
    st.lists(st.integers(min_value=0, max_value=3), min_size=0, max_size=3),  # d1 values
    st.lists(st.integers(min_value=0, max_value=2), min_size=0, max_size=2),  # d2 values
    st.one_of(st.none(), st.integers(min_value=0, max_value=2)),              # detail
    st.lists(st.integers(min_value=0, max_value=9), min_size=0, max_size=4),  # measures
)
instance_strategy = st.lists(fact_strategy, min_size=1, max_size=12)
aggregate_strategy = st.sampled_from(["count", "sum", "avg", "min", "max"])


def build_instance(description) -> Graph:
    """Materialize an instance graph from the per-fact description tuples."""
    graph = Graph()
    for index, (d1_values, d2_values, detail, measures) in enumerate(description):
        fact = EX.term(f"fact{index}")
        graph.add(Triple(fact, RDF_TYPE, EX.Fact))
        for value in set(d1_values):
            graph.add(Triple(fact, EX.dim1, EX.term(f"a{value}")))
        for value in set(d2_values):
            graph.add(Triple(fact, EX.dim2, EX.term(f"b{value}")))
        if detail is not None:
            detail_node = EX.term(f"detail{detail}")
            graph.add(Triple(fact, EX.hasDetail, detail_node))
            graph.add(Triple(detail_node, EX.detailA, Literal(f"A{detail % 2}")))
        for position, value in enumerate(measures):
            # Measures are attached through intermediate observation nodes so
            # that identical values yield distinct measure-query embeddings
            # (the bag semantics situation of the paper).
            observation = EX.term(f"obs{index}_{position}")
            graph.add(Triple(fact, EX.hasObservation, observation))
            graph.add(Triple(observation, EX.value, Literal(value)))
    return graph


def build_query(aggregate: str, with_detail: bool) -> AnalyticalQuery:
    x, d1, d2 = Variable("x"), Variable("d1"), Variable("d2")
    body = [
        TriplePattern(x, RDF_TYPE, EX.Fact),
        TriplePattern(x, EX.dim1, d1),
        TriplePattern(x, EX.dim2, d2),
    ]
    if with_detail:
        detail, da = Variable("detail"), Variable("da")
        body.append(TriplePattern(x, EX.hasDetail, detail))
        body.append(TriplePattern(detail, EX.detailA, da))
    classifier = BGPQuery([x, d1, d2], body, name="c")
    observation, value = Variable("obs"), Variable("v")
    measure = BGPQuery(
        [x, value],
        [
            TriplePattern(x, RDF_TYPE, EX.Fact),
            TriplePattern(x, EX.hasObservation, observation),
            TriplePattern(observation, EX.value, value),
        ],
        name="m",
    )
    return AnalyticalQuery(classifier, measure, aggregate, name="Qrand")


@settings(max_examples=40, deadline=None)
@given(instance_strategy, aggregate_strategy)
def test_equation3_agrees_with_definition1(description, aggregate):
    instance = build_instance(description)
    query = build_query(aggregate, with_detail=False)
    evaluator = AnalyticalQueryEvaluator(instance)
    via_pres = evaluator.answer(query)
    via_definition = answer_definition1(evaluator, query)
    assert Cube(via_pres).same_cells(Cube(via_definition))


@settings(max_examples=40, deadline=None)
@given(instance_strategy, aggregate_strategy, st.integers(min_value=0, max_value=3))
def test_proposition1_slice_and_dice(description, aggregate, sliced_value):
    instance = build_instance(description)
    query = build_query(aggregate, with_detail=False)
    evaluator = AnalyticalQueryEvaluator(instance)
    materialized = evaluator.evaluate(query)

    slice_operation = Slice("d1", EX.term(f"a{sliced_value}"))
    transformed = slice_operation.apply(query)
    rewritten = slice_dice_from_answer(materialized.answer, transformed)
    assert Cube(rewritten).same_cells(Cube(evaluator.answer(transformed)))

    dice_operation = Dice({"d1": [EX.term("a0"), EX.term("a1")], "d2": [EX.term("b0")]})
    diced = dice_operation.apply(query)
    rewritten_dice = slice_dice_from_answer(materialized.answer, diced)
    assert Cube(rewritten_dice).same_cells(Cube(evaluator.answer(diced)))


@settings(max_examples=40, deadline=None)
@given(instance_strategy, aggregate_strategy, st.sampled_from(["d1", "d2"]))
def test_proposition2_drill_out(description, aggregate, dimension):
    instance = build_instance(description)
    query = build_query(aggregate, with_detail=False)
    evaluator = AnalyticalQueryEvaluator(instance)
    partial = evaluator.partial_result(query)
    operation = DrillOut(dimension)
    transformed = operation.apply(query)
    rewritten = drill_out_from_partial(partial, query, transformed)
    assert Cube(rewritten).same_cells(Cube(evaluator.answer(transformed)))


@settings(max_examples=40, deadline=None)
@given(instance_strategy, aggregate_strategy)
def test_proposition3_drill_in(description, aggregate):
    instance = build_instance(description)
    query = build_query(aggregate, with_detail=True)
    evaluator = AnalyticalQueryEvaluator(instance)
    partial = evaluator.partial_result(query)
    operation = DrillIn("da")
    transformed = operation.apply(query)
    rewritten = drill_in_from_partial(partial, query, transformed, evaluator.bgp_evaluator)
    assert Cube(rewritten).same_cells(Cube(evaluator.answer(transformed)))


@settings(max_examples=30, deadline=None)
@given(instance_strategy, st.sampled_from(["d1", "d2"]))
def test_drill_out_then_drill_back_in_recovers_the_cube(description, dimension):
    """DRILL-OUT followed by DRILL-IN on the same dimension is the identity on cells."""
    instance = build_instance(description)
    query = build_query("sum", with_detail=False)
    evaluator = AnalyticalQueryEvaluator(instance)

    coarse_query = DrillOut(dimension).apply(query)
    coarse = evaluator.evaluate(coarse_query)
    refined_query = DrillIn(dimension).apply(coarse_query)
    rewritten = drill_in_from_partial(
        coarse.partial, coarse_query, refined_query, evaluator.bgp_evaluator
    )
    original = evaluator.answer(query)
    refined_cells = {frozenset(zip(refined_query.dimension_names, row[:-1])): row[-1]
                     for row in rewritten.relation}
    original_cells = {frozenset(zip(query.dimension_names, row[:-1])): row[-1]
                      for row in original.relation}
    assert refined_cells == original_cells
