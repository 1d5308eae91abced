"""Tests for DRILL-IN rewriting (Algorithm 2, Definition 6, Figure 3)."""

import pytest

from repro.errors import RewritingError
from repro.rdf import EX, Literal
from repro.analytics.evaluator import AnalyticalQueryEvaluator
from repro.olap.cube import Cube
from repro.olap.operations import DrillIn, DrillOut
from repro.olap.rewriting import OLAPRewriter, drill_in_from_partial

from tests.conftest import make_sites_query, make_views_query


class TestFigure3:
    def test_original_query_answer(self, figure3_instance, views_query):
        """ans(Q) of Figure 3: one row per URL, each with the video's views."""
        evaluator = AnalyticalQueryEvaluator(figure3_instance)
        answer = evaluator.answer(views_query)
        cells = {row[0]: row[1] for row in answer.relation}
        assert cells == {Literal("URL1"): 100, Literal("URL2"): 100}

    def test_partial_result_of_figure3(self, figure3_instance, views_query):
        evaluator = AnalyticalQueryEvaluator(figure3_instance)
        partial = evaluator.partial_result(views_query)
        assert partial.columns == ("x", "d2", "k", "v")
        assert len(partial) == 2
        assert partial.relation.distinct_values("d2") == {Literal("URL1"), Literal("URL2")}

    def test_algorithm2_reproduces_figure3_drill_in(self, figure3_instance, views_query):
        """ans(Q_DRILL-IN): ⟨URL1, firefox, n⟩ and ⟨URL2, chrome, n⟩."""
        evaluator = AnalyticalQueryEvaluator(figure3_instance)
        partial = evaluator.partial_result(views_query)
        operation = DrillIn("d3")
        transformed = operation.apply(views_query)

        rewritten = drill_in_from_partial(
            partial, views_query, transformed, evaluator.bgp_evaluator
        )
        cells = {(row[0], row[1]): row[2] for row in rewritten.relation}
        assert cells == {
            (Literal("URL1"), Literal("firefox")): 100,
            (Literal("URL2"), Literal("chrome")): 100,
        }
        scratch = evaluator.answer(transformed)
        assert Cube(rewritten).same_cells(Cube(scratch))

    def test_drill_in_with_shared_url_and_browsers(self, figure3_instance, views_query):
        """Websites sharing a URL / browsers must not double-count the measure."""
        from repro.rdf import RDF, Triple

        # website3 has the same URL as website1 and also supports firefox.
        website3 = EX.term("website3")
        figure3_instance.add(Triple(website3, RDF.term("type"), EX.Website))
        figure3_instance.add(Triple(website3, EX.hasUrl, Literal("URL1")))
        figure3_instance.add(Triple(website3, EX.supportsBrowser, Literal("firefox")))
        figure3_instance.add(Triple(EX.term("video1"), EX.postedOn, website3))

        evaluator = AnalyticalQueryEvaluator(figure3_instance)
        partial = evaluator.partial_result(views_query)
        operation = DrillIn("d3")
        transformed = operation.apply(views_query)
        rewritten = drill_in_from_partial(partial, views_query, transformed, evaluator.bgp_evaluator)
        scratch = evaluator.answer(transformed)
        assert Cube(rewritten).same_cells(Cube(scratch))
        cells = {(str(row[0]), str(row[1])): row[2] for row in rewritten.relation}
        assert cells[("URL1", "firefox")] == 100  # not 200


class TestDrillInOnPaperScenarios:
    def test_drill_in_after_drill_out_recovers_original_cube(self, example2_instance, sites_query):
        """DRILL-OUT dage then DRILL-IN dage gives back ans(Q) (Example 3)."""
        evaluator = AnalyticalQueryEvaluator(example2_instance)
        coarse_query = DrillOut("dage").apply(sites_query)
        coarse = evaluator.evaluate(coarse_query)
        operation = DrillIn("dage")
        refined_query = operation.apply(coarse_query)
        rewritten = drill_in_from_partial(
            coarse.partial, coarse_query, refined_query, evaluator.bgp_evaluator
        )
        original = evaluator.answer(sites_query)
        # Same cells up to dimension order (dcity, dage) vs (dage, dcity).
        refined_cells = {frozenset(row[:-1]): row[-1] for row in rewritten.relation}
        original_cells = {frozenset(row[:-1]): row[-1] for row in original.relation}
        assert refined_cells == original_cells

    def test_drill_in_on_generated_videos(self, small_video_dataset):
        from repro.datagen.videos import views_per_url_query

        evaluator = AnalyticalQueryEvaluator(small_video_dataset.instance)
        query = views_per_url_query(small_video_dataset.schema)
        materialized = evaluator.evaluate(query)
        operation = DrillIn("d3")
        transformed = operation.apply(query)
        rewritten = drill_in_from_partial(
            materialized.partial, query, transformed, evaluator.bgp_evaluator
        )
        scratch = evaluator.answer(transformed)
        assert Cube(rewritten, transformed).same_cells(Cube(scratch, transformed))

    def test_drill_in_requires_a_new_dimension(self, figure3_instance, views_query):
        evaluator = AnalyticalQueryEvaluator(figure3_instance)
        partial = evaluator.partial_result(views_query)
        with pytest.raises(RewritingError):
            drill_in_from_partial(partial, views_query, views_query, evaluator.bgp_evaluator)


class TestRewriterDispatch:
    def test_rewriter_uses_partial_and_instance(self, figure3_instance, views_query):
        evaluator = AnalyticalQueryEvaluator(figure3_instance)
        materialized = evaluator.evaluate(views_query)
        rewriter = OLAPRewriter(evaluator.bgp_evaluator)
        result = rewriter.answer(materialized, DrillIn("d3"))
        assert result.strategy == "drill-in/pres+aux"  # reads pres(Q) and the instance

    def test_rewriter_without_instance_access_fails(self, figure3_instance, views_query):
        evaluator = AnalyticalQueryEvaluator(figure3_instance)
        materialized = evaluator.evaluate(views_query)
        rewriter = OLAPRewriter(instance_evaluator=None)
        with pytest.raises(RewritingError):
            rewriter.answer(materialized, DrillIn("d3"))
