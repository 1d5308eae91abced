"""Tests for SLICE/DICE rewriting over ans(Q) (Definition 5, Proposition 1)."""

import pytest

from repro.rdf import EX, Literal
from repro.analytics.evaluator import AnalyticalQueryEvaluator
from repro.olap.cube import Cube
from repro.olap.operations import Dice, Slice
from repro.olap.rewriting import OLAPRewriter, slice_dice_from_answer

from tests.conftest import make_sites_query, make_words_query


class TestProposition1OnExamples:
    def test_example4_dice_on_answer(self, example4_instance, words_query):
        """Applying the 20≤age≤30 DICE on ans(Q) yields exactly {⟨28, Madrid, 210⟩}."""
        evaluator = AnalyticalQueryEvaluator(example4_instance)
        materialized = evaluator.evaluate(words_query)
        operation = Dice({"dage": (20, 30)})
        transformed = operation.apply(words_query)

        rewritten = slice_dice_from_answer(materialized.answer, transformed)
        cells = {(row[0], row[1]): row[2] for row in rewritten.relation}
        assert cells == {(Literal(28), EX.term("Madrid")): pytest.approx(210.0)}

        scratch = evaluator.answer(transformed)
        assert Cube(rewritten).same_cells(Cube(scratch))

    def test_example_slice_on_answer(self, example2_instance, sites_query):
        evaluator = AnalyticalQueryEvaluator(example2_instance)
        materialized = evaluator.evaluate(sites_query)
        operation = Slice("dage", Literal(35))
        transformed = operation.apply(sites_query)
        rewritten = slice_dice_from_answer(materialized.answer, transformed)
        assert {row[:2] for row in rewritten.relation} == {(Literal(35), EX.term("NY"))}
        assert Cube(rewritten).same_cells(Cube(evaluator.answer(transformed)))

    def test_dice_on_city_values(self, example2_instance, sites_query):
        evaluator = AnalyticalQueryEvaluator(example2_instance)
        materialized = evaluator.evaluate(sites_query)
        operation = Dice({"dcity": [EX.term("Madrid"), EX.term("Kyoto")]})
        transformed = operation.apply(sites_query)
        rewritten = slice_dice_from_answer(materialized.answer, transformed)
        assert {row[1] for row in rewritten.relation} == {EX.term("Madrid")}
        assert Cube(rewritten).same_cells(Cube(evaluator.answer(transformed)))

    def test_dice_selecting_nothing(self, example2_instance, sites_query):
        evaluator = AnalyticalQueryEvaluator(example2_instance)
        materialized = evaluator.evaluate(sites_query)
        operation = Dice({"dage": [Literal(99)]})
        transformed = operation.apply(sites_query)
        rewritten = slice_dice_from_answer(materialized.answer, transformed)
        assert len(rewritten) == 0
        assert len(evaluator.answer(transformed)) == 0

    def test_dice_on_both_dimensions(self, example2_instance, sites_query):
        evaluator = AnalyticalQueryEvaluator(example2_instance)
        materialized = evaluator.evaluate(sites_query)
        operation = Dice({"dage": (30, 40), "dcity": [EX.term("NY")]})
        transformed = operation.apply(sites_query)
        rewritten = slice_dice_from_answer(materialized.answer, transformed)
        assert Cube(rewritten).same_cells(Cube(evaluator.answer(transformed)))
        assert len(rewritten) == 1


class TestRewriterDispatch:
    def test_rewriter_uses_answer_for_slice(self, example2_instance, sites_query):
        evaluator = AnalyticalQueryEvaluator(example2_instance)
        materialized = evaluator.evaluate(sites_query)
        rewriter = OLAPRewriter(evaluator.bgp_evaluator)
        result = rewriter.answer(materialized, Slice("dage", Literal(28)))
        assert result.strategy == "slice-dice/ans"  # reads ans(Q) only
        assert len(result.answer) == 1

    def test_rewriting_on_generated_dataset(self, small_blogger_dataset):
        from repro.datagen.blogger import sites_per_blogger_query

        evaluator = AnalyticalQueryEvaluator(small_blogger_dataset.instance)
        query = sites_per_blogger_query(small_blogger_dataset.schema)
        materialized = evaluator.evaluate(query)
        ages = sorted(materialized.answer.relation.distinct_values("dage"), key=repr)
        operation = Dice({"dage": ages[: max(1, len(ages) // 3)]})
        transformed = operation.apply(query)
        rewritten = slice_dice_from_answer(materialized.answer, transformed)
        scratch = evaluator.answer(transformed)
        assert Cube(rewritten, transformed).same_cells(Cube(scratch, transformed))
