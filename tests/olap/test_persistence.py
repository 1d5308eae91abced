"""Unit tests for persisting and restoring materialized query results."""

import os

import pytest

from repro.errors import MaterializationError
from repro.rdf import EX, Literal
from repro.algebra.relation import Relation
from repro.analytics import AnalyticalQuery, AnalyticalQueryEvaluator
from repro.olap import Cube, DrillIn, DrillOut, OLAPSession, Slice
from repro.persistence import (
    load_materialized_results,
    load_relation,
    save_materialized_results,
    save_relation,
)

from tests.conftest import make_sites_query, make_views_query


class TestRelationRoundtrip:
    def test_terms_numbers_strings_and_none(self, tmp_path):
        relation = Relation(
            ["x", "dage", "dcity", "k", "v", "note"],
            [
                (EX.user1, Literal(28), EX.term("Madrid"), 1, 3.5, "plain text"),
                (EX.user3, Literal("35"), EX.term("NY"), 2, True, None),
            ],
        )
        path = str(tmp_path / "relation.tsv")
        save_relation(relation, path)
        recovered = load_relation(path)
        assert recovered.columns == relation.columns
        assert recovered.bag_equal(relation)

    def test_duplicate_rows_survive(self, tmp_path):
        relation = Relation(["a"], [(1,), (1,), (2,)])
        path = str(tmp_path / "dups.tsv")
        save_relation(relation, path)
        assert load_relation(path).to_multiset() == relation.to_multiset()

    def test_empty_relation(self, tmp_path):
        relation = Relation(["a", "b"], [])
        path = str(tmp_path / "empty.tsv")
        save_relation(relation, path)
        recovered = load_relation(path)
        assert recovered.columns == ("a", "b") and len(recovered) == 0

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "broken.tsv"
        path.write_text("")
        with pytest.raises(MaterializationError):
            load_relation(str(path))

    def test_arity_mismatch_rejected(self, tmp_path):
        path = tmp_path / "broken.tsv"
        path.write_text("a\tb\njson:1\n")
        with pytest.raises(MaterializationError):
            load_relation(str(path))

    def test_unpersistable_value_rejected(self, tmp_path):
        relation = Relation(["a"], [(object(),)])
        with pytest.raises(MaterializationError):
            save_relation(relation, str(tmp_path / "bad.tsv"))


class TestMaterializedResultsRoundtrip:
    def test_save_and_load_answer_and_partial(self, example2_instance, sites_query, tmp_path):
        evaluator = AnalyticalQueryEvaluator(example2_instance)
        materialized = evaluator.evaluate(sites_query)
        directory = str(tmp_path / "Q_sites")
        save_materialized_results(materialized, directory)
        assert os.path.exists(os.path.join(directory, "manifest.json"))

        restored = load_materialized_results(directory, sites_query)
        assert restored.answer.relation.bag_equal(materialized.answer.relation)
        assert restored.partial.relation.bag_equal(materialized.partial.relation)
        assert restored.partial.dimension_columns == materialized.partial.dimension_columns

    @pytest.mark.parametrize("missing", ["answer.tsv", "partial.tsv"])
    def test_incomplete_bundle_rejected(self, example2_instance, sites_query, tmp_path, missing):
        """Stored results are complete: a directory lacking either relation is malformed."""
        evaluator = AnalyticalQueryEvaluator(example2_instance)
        directory = str(tmp_path / "Q_incomplete")
        save_materialized_results(evaluator.evaluate(sites_query), directory)
        os.remove(os.path.join(directory, missing))
        with pytest.raises(MaterializationError, match=r"answer\.tsv or partial\.tsv"):
            load_materialized_results(directory, sites_query)
        with pytest.raises(MaterializationError):
            OLAPSession(example2_instance).restore_materialized(sites_query, directory)

    def test_mismatched_query_rejected(self, example2_instance, sites_query, tmp_path):
        evaluator = AnalyticalQueryEvaluator(example2_instance)
        directory = str(tmp_path / "Q_sites")
        save_materialized_results(evaluator.evaluate(sites_query), directory)
        other = AnalyticalQuery(
            sites_query.classifier, sites_query.measure, "sum", name=sites_query.name
        )
        with pytest.raises(MaterializationError):
            load_materialized_results(directory, other)

    def test_missing_manifest_rejected(self, sites_query, tmp_path):
        with pytest.raises(MaterializationError):
            load_materialized_results(str(tmp_path), sites_query)


class TestSessionIntegration:
    def test_restore_enables_rewriting_without_reexecution(
        self, example2_instance, sites_query, tmp_path
    ):
        # First session: execute and persist.
        first = OLAPSession(example2_instance)
        first.execute(sites_query)
        directory = str(tmp_path / "saved")
        first.save_materialized(sites_query, directory)
        reference = first.transform(sites_query, DrillOut("dage"), strategy="rewrite")

        # Second session: restore instead of executing, then rewrite.
        second = OLAPSession(example2_instance)
        second.restore_materialized(sites_query, directory)
        restored_cube = second.transform(sites_query, DrillOut("dage"), strategy="rewrite")
        assert restored_cube.same_cells(reference)
        sliced = second.transform(sites_query, Slice("dage", Literal(35)), strategy="rewrite")
        assert len(sliced) == 1

    def test_drill_in_after_restore(self, figure3_instance, views_query, tmp_path):
        first = OLAPSession(figure3_instance)
        first.execute(views_query)
        directory = str(tmp_path / "views")
        first.save_materialized(views_query, directory)

        second = OLAPSession(figure3_instance)
        second.restore_materialized(views_query, directory)
        refined = second.transform(views_query, DrillIn("d3"), strategy="rewrite")
        assert refined.cell(Literal("URL1"), Literal("firefox")) == 100
