"""Tests for DRILL-OUT rewriting from pres(Q) (Algorithm 1, Example 5)."""

import pytest

from repro.errors import RewritingError
from repro.rdf import EX, Literal, RDF, Triple
from repro.algebra.relation import Relation
from repro.analytics.answer import CubeAnswer, PartialResult
from repro.analytics.evaluator import AnalyticalQueryEvaluator
from repro.olap.cube import Cube
from repro.olap.operations import DrillOut
from repro.olap.rewriting import (
    OLAPRewriter,
    drill_out_from_answer_naive,
    drill_out_from_partial,
)

from tests.conftest import make_sites_query, make_words_query

RDF_TYPE = RDF.term("type")


@pytest.fixture()
def example5_instance():
    """A concrete instance realizing Example 5's abstract tables.

    Fact ``x`` has one value ``a1`` for dimension d1 and *two* values
    (``an``, ``bn``) for dimension dn; fact ``y`` has ``a1`` and ``bn``.
    ``x`` has a single measure value 10 (m1), ``y`` has 20 (m2).
    """
    from repro.rdf import Graph

    graph = Graph(name="example5")
    x, y = EX.term("factX"), EX.term("factY")
    a1, an, bn = EX.term("a1"), EX.term("an"), EX.term("bn")
    for fact in (x, y):
        graph.add(Triple(fact, RDF_TYPE, EX.Fact))
    graph.add(Triple(x, EX.dim1, a1))
    graph.add(Triple(x, EX.dimN, an))
    graph.add(Triple(x, EX.dimN, bn))
    graph.add(Triple(y, EX.dim1, a1))
    graph.add(Triple(y, EX.dimN, bn))
    graph.add(Triple(x, EX.measure, Literal(10)))
    graph.add(Triple(y, EX.measure, Literal(20)))
    return graph


@pytest.fixture()
def example5_query():
    from repro.bgp.parser import parse_query
    from repro.analytics.query import AnalyticalQuery

    classifier = parse_query(
        "c(?x, ?d1, ?dn) :- ?x rdf:type ex:Fact, ?x ex:dim1 ?d1, ?x ex:dimN ?dn"
    )
    measure = parse_query("m(?x, ?v) :- ?x rdf:type ex:Fact, ?x ex:measure ?v")
    return AnalyticalQuery(classifier, measure, "sum", name="Q5")


class TestExample5:
    def test_algorithm1_gives_the_correct_answer(self, example5_instance, example5_query):
        evaluator = AnalyticalQueryEvaluator(example5_instance)
        partial = evaluator.partial_result(example5_query)
        operation = DrillOut("dn")
        transformed = operation.apply(example5_query)

        rewritten = drill_out_from_partial(partial, example5_query, transformed)
        cells = {row[0]: row[1] for row in rewritten.relation}
        # ⊕({m1, m2}) = 10 + 20 = 30: x's measure is counted once even though
        # x is multi-valued along the removed dimension.
        assert cells == {EX.term("a1"): 30}

        scratch = evaluator.answer(transformed)
        assert Cube(rewritten).same_cells(Cube(scratch))

    def test_naive_answer_based_drill_out_overcounts(self, example5_instance, example5_query):
        """Reproduces the erroneous (iv) table of Example 5: m1 is counted twice."""
        evaluator = AnalyticalQueryEvaluator(example5_instance)
        materialized = evaluator.evaluate(example5_query)
        transformed = DrillOut("dn").apply(example5_query)
        naive = drill_out_from_answer_naive(materialized.answer, transformed)
        cells = {row[0]: row[1] for row in naive.relation}
        assert cells == {EX.term("a1"): 40}  # 10 + 10 + 20: the double counting

    def test_naive_rewriting_is_rejected_for_non_distributive_aggregates(
        self, example5_instance, example5_query
    ):
        from repro.analytics.query import AnalyticalQuery

        query = AnalyticalQuery(
            example5_query.classifier, example5_query.measure, "avg", name="Q5avg"
        )
        evaluator = AnalyticalQueryEvaluator(example5_instance)
        materialized = evaluator.evaluate(query)
        transformed = DrillOut("dn").apply(query)
        with pytest.raises(RewritingError):
            drill_out_from_answer_naive(materialized.answer, transformed)


class TestAlgorithm1OnPaperExamples:
    @pytest.mark.parametrize("dimension", ["dage", "dcity"])
    def test_drill_out_on_example2(self, example2_instance, sites_query, dimension):
        evaluator = AnalyticalQueryEvaluator(example2_instance)
        partial = evaluator.partial_result(sites_query)
        operation = DrillOut(dimension)
        transformed = operation.apply(sites_query)
        rewritten = drill_out_from_partial(partial, sites_query, transformed)
        scratch = evaluator.answer(transformed)
        assert Cube(rewritten).same_cells(Cube(scratch))

    def test_drill_out_to_global_cube(self, example2_instance, sites_query):
        evaluator = AnalyticalQueryEvaluator(example2_instance)
        partial = evaluator.partial_result(sites_query)
        transformed = DrillOut(["dage", "dcity"]).apply(sites_query)
        rewritten = drill_out_from_partial(partial, sites_query, transformed)
        assert len(rewritten) == 1
        # All five measure tuples (s1, s1, s2, s2, s3) are counted once each.
        assert rewritten.relation.rows[0] == (5,)

    def test_drill_out_with_average(self, example4_instance, words_query):
        evaluator = AnalyticalQueryEvaluator(example4_instance)
        partial = evaluator.partial_result(words_query)
        transformed = DrillOut("dage").apply(words_query)
        rewritten = drill_out_from_partial(partial, words_query, transformed)
        scratch = evaluator.answer(transformed)
        assert Cube(rewritten).same_cells(Cube(scratch))
        cells = {row[0]: row[1] for row in rewritten.relation}
        assert cells[EX.term("Madrid")] == pytest.approx((100 + 120 + 410) / 3)

    def test_drill_out_rejects_partial_missing_a_needed_dimension(self, example2_instance, sites_query):
        # A pres(Q) that was materialized without the dcity column cannot
        # answer a drill-out whose remaining dimension is dcity.
        broken = PartialResult(
            Relation(["x", "dage", "k", "vsite"], []),
            fact_column="x",
            dimension_columns=("dage",),
            key_column="k",
            measure_column="vsite",
        )
        transformed = DrillOut("dage").apply(sites_query)
        with pytest.raises(RewritingError):
            drill_out_from_partial(broken, sites_query, transformed)


class TestRewriterDispatch:
    def test_rewriter_uses_partial_for_drill_out(self, example2_instance, sites_query):
        evaluator = AnalyticalQueryEvaluator(example2_instance)
        materialized = evaluator.evaluate(sites_query)
        rewriter = OLAPRewriter(evaluator.bgp_evaluator)
        result = rewriter.answer(materialized, DrillOut("dage"))
        assert result.strategy == "drill-out/pres"  # reads pres(Q) only

    def test_rewriter_on_generated_dataset(self, small_blogger_dataset):
        from repro.datagen.blogger import sites_per_blogger_query

        evaluator = AnalyticalQueryEvaluator(small_blogger_dataset.instance)
        query = sites_per_blogger_query(small_blogger_dataset.schema)
        materialized = evaluator.evaluate(query)
        rewriter = OLAPRewriter(evaluator.bgp_evaluator)
        operation = DrillOut("dage")
        result = rewriter.answer(materialized, operation)
        scratch = evaluator.answer(operation.apply(query))
        assert Cube(result.answer).same_cells(Cube(scratch))
