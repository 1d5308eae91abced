"""Unit tests for the OLAP operations as query transformations (Example 3)."""

import pytest

from repro.errors import InvalidOperationError
from repro.rdf import EX, Literal
from repro.analytics.sigma import DimensionRestriction
from repro.olap.operations import Dice, DrillIn, DrillOut, Slice, compose

from tests.conftest import make_sites_query, make_views_query


class TestSlice:
    def test_slice_restricts_sigma_to_single_value(self):
        query = make_sites_query()
        sliced = Slice("dage", Literal(35)).apply(query)
        assert not sliced.sigma.is_unrestricted()
        assert sliced.sigma["dage"].values == (Literal(35),)
        assert sliced.sigma["dcity"].is_full
        # The classifier and measure are untouched (only Σ changes).
        assert sliced.classifier == query.classifier
        assert sliced.measure == query.measure

    def test_slice_unknown_dimension(self):
        with pytest.raises(InvalidOperationError):
            Slice("dbrowser", 1).apply(make_sites_query())

    def test_slice_on_sliced_query_intersects(self):
        query = make_sites_query()
        once = Slice("dage", Literal(35)).apply(query)
        with pytest.raises(Exception):
            # Slicing the same dimension to a different value empties Σ(dage).
            Slice("dage", Literal(28)).apply(once)

    def test_describe(self):
        assert "dage" in Slice("dage", 35).describe()


class TestDice:
    def test_dice_with_value_sets(self):
        query = make_sites_query()
        diced = Dice({"dage": [Literal(28)], "dcity": [EX.Madrid, EX.Kyoto]}).apply(query)
        assert diced.sigma["dage"].allows(Literal(28))
        assert not diced.sigma["dage"].allows(Literal(35))
        assert diced.sigma["dcity"].allows(EX.Kyoto)

    def test_dice_with_range(self):
        query = make_sites_query()
        diced = Dice({"dage": (20, 30)}).apply(query)
        assert diced.sigma["dage"].allows(Literal(28))
        assert not diced.sigma["dage"].allows(Literal(35))

    def test_dice_with_single_value_behaves_like_slice(self):
        query = make_sites_query()
        diced = Dice({"dage": Literal(28)}).apply(query)
        assert diced.sigma["dage"].values == (Literal(28),)

    def test_dice_with_explicit_restriction_object(self):
        query = make_sites_query()
        diced = Dice({"dage": DimensionRestriction.to_range(20, 30)}).apply(query)
        assert diced.sigma["dage"].allows(25)

    def test_empty_dice_rejected(self):
        with pytest.raises(InvalidOperationError):
            Dice({})

    def test_dice_unknown_dimension(self):
        with pytest.raises(InvalidOperationError):
            Dice({"nope": [1]}).apply(make_sites_query())

    def test_successive_dices_intersect(self):
        query = make_sites_query()
        wide = Dice({"dage": (20, 40)}).apply(query)
        narrow = Dice({"dage": (30, 50)}).apply(wide)
        assert narrow.sigma["dage"].allows(35)
        assert not narrow.sigma["dage"].allows(25)
        assert not narrow.sigma["dage"].allows(45)


class TestDrillOut:
    def test_drill_out_removes_dimension_from_head_and_sigma(self):
        query = make_sites_query()
        drilled = DrillOut("dage").apply(query)
        assert drilled.dimension_names == ("dcity",)
        assert drilled.sigma.dimensions == ("dcity",)
        # The classifier body is unchanged (body(c') ≡ body(c), Example 3).
        assert set(drilled.classifier.body) == set(query.classifier.body)

    def test_drill_out_multiple_dimensions(self):
        query = make_sites_query()
        drilled = DrillOut(["dage", "dcity"]).apply(query)
        assert drilled.dimension_names == ()

    def test_drill_out_unknown_dimension(self):
        with pytest.raises(InvalidOperationError):
            DrillOut("nope").apply(make_sites_query())

    def test_drill_out_requires_at_least_one_dimension(self):
        with pytest.raises(InvalidOperationError):
            DrillOut([])

    def test_drill_out_duplicates_rejected(self):
        with pytest.raises(InvalidOperationError):
            DrillOut(["dage", "dage"])


class TestDrillIn:
    def test_drill_in_adds_body_variable_as_dimension(self):
        query = make_views_query()
        drilled = DrillIn("d3").apply(query)
        assert drilled.dimension_names == ("d2", "d3")
        assert drilled.sigma["d3"].is_full

    def test_drill_in_inverse_of_drill_out(self):
        """Example 3: DRILL-IN on dage applied to Q_DRILL-OUT reproduces Q."""
        query = make_sites_query()
        drilled_out = DrillOut("dage").apply(query)
        back = DrillIn("dage").apply(drilled_out)
        assert set(back.dimension_names) == set(query.dimension_names)
        assert back.classifier.body == query.classifier.body

    def test_drill_in_requires_classifier_body_variable(self):
        query = make_sites_query()
        with pytest.raises(InvalidOperationError):
            DrillIn("vsite").apply(query)  # a measure variable, not in the classifier

    def test_drill_in_rejects_existing_dimension(self):
        query = make_views_query()
        with pytest.raises(InvalidOperationError):
            DrillIn("d2").apply(query)

    def test_drill_in_rejects_fact_variable(self):
        query = make_views_query()
        with pytest.raises(InvalidOperationError):
            DrillIn("x").apply(query)

    def test_drill_in_multiple_dimensions(self):
        query = make_views_query()
        drilled = DrillIn(["d1", "d3"]).apply(query)
        assert drilled.dimension_names == ("d2", "d1", "d3")


class TestCompose:
    def test_sequence_of_operations(self):
        query = make_sites_query()
        result = compose(query, [Slice("dage", Literal(28)), DrillOut("dage")])
        assert result.dimension_names == ("dcity",)

    def test_empty_sequence_is_identity(self):
        query = make_sites_query()
        assert compose(query, []) is query
