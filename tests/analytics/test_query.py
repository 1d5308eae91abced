"""Unit tests for analytical queries (AnQ) and their validation."""

import pytest

from repro.errors import HomomorphismError, QueryDefinitionError
from repro.rdf import EX, RDF
from repro.rdf.terms import Variable
from repro.rdf.triples import TriplePattern
from repro.bgp.parser import parse_query
from repro.analytics.query import KEY_COLUMN, AnalyticalQuery
from repro.analytics.sigma import DimensionRestriction, Sigma
from repro.datagen.blogger import blogger_schema

from tests.conftest import make_sites_query
from tests.definitions import measure_bar

RDF_TYPE = RDF.term("type")


def classifier():
    return parse_query(
        "c(?x, ?dage, ?dcity) :- ?x rdf:type ex:Blogger, ?x ex:hasAge ?dage, ?x ex:livesIn ?dcity"
    )


def measure():
    return parse_query(
        "m(?x, ?vsite) :- ?x rdf:type ex:Blogger, ?x ex:wrotePost ?p, ?p ex:postedOn ?vsite"
    )


def _city_hierarchy():
    from repro.olap.hierarchy import DimensionHierarchy

    return DimensionHierarchy({EX.term("Madrid"): "Spain", EX.term("NY"): "USA"}, name="country")


class TestConstruction:
    def test_example1_query(self):
        query = AnalyticalQuery(classifier(), measure(), "count", name="Q")
        assert query.fact_variable == Variable("x")
        assert query.dimension_names == ("dage", "dcity")
        assert query.measure_variable == Variable("vsite")
        assert query.aggregate.name == "count"
        assert query.arity == 2
        assert query.sigma.is_unrestricted()

    def test_aggregate_can_be_function_object(self):
        from repro.algebra.aggregates import SUM

        query = AnalyticalQuery(classifier(), measure(), SUM)
        assert query.aggregate is SUM

    def test_unknown_aggregate_rejected(self):
        from repro.errors import AggregationError

        with pytest.raises(AggregationError):
            AnalyticalQuery(classifier(), measure(), "median")

    def test_measure_must_be_binary(self):
        bad_measure = parse_query("m(?x, ?p, ?v) :- ?x ex:wrotePost ?p, ?p ex:postedOn ?v")
        with pytest.raises(QueryDefinitionError):
            AnalyticalQuery(classifier(), bad_measure, "count")

    def test_classifier_and_measure_must_share_fact_variable(self):
        other_measure = parse_query("m(?y, ?v) :- ?y ex:wrotePost ?p, ?p ex:postedOn ?v")
        with pytest.raises(QueryDefinitionError):
            AnalyticalQuery(classifier(), other_measure, "count")

    def test_disconnected_classifier_rejected(self):
        bad_classifier = parse_query("c(?x, ?d) :- ?x rdf:type ex:Blogger, ?z ex:livesIn ?d")
        with pytest.raises(Exception):
            AnalyticalQuery(bad_classifier, measure(), "count")

    def test_dimension_name_clash_with_key_column(self):
        bad_classifier = parse_query("c(?x, ?k) :- ?x rdf:type ex:Blogger, ?x ex:hasAge ?k")
        with pytest.raises(QueryDefinitionError):
            AnalyticalQuery(bad_classifier, measure(), "count")

    def test_dimension_name_clash_with_measure_variable(self):
        clashing_classifier = parse_query(
            "c(?x, ?vsite) :- ?x rdf:type ex:Blogger, ?x ex:livesIn ?vsite"
        )
        with pytest.raises(QueryDefinitionError):
            AnalyticalQuery(clashing_classifier, measure(), "count")

    def test_sigma_must_match_dimensions(self):
        with pytest.raises(QueryDefinitionError):
            AnalyticalQuery(classifier(), measure(), "count", sigma=Sigma(["other"]))

    def test_schema_validation(self):
        schema = blogger_schema()
        AnalyticalQuery(classifier(), measure(), "count", schema=schema)
        bad_measure = parse_query("m(?x, ?v) :- ?x ex:unknownProperty ?v")
        with pytest.raises(HomomorphismError):
            AnalyticalQuery(classifier(), bad_measure, "count", schema=schema)

    def test_zero_dimension_query_is_allowed(self):
        global_classifier = parse_query("c(?x) :- ?x rdf:type ex:Blogger")
        query = AnalyticalQuery(global_classifier, measure(), "count")
        assert query.dimension_names == ()


class TestDerivedQueries:
    def test_measure_bar_exposes_all_body_variables(self):
        query = AnalyticalQuery(classifier(), measure(), "count")
        bar = measure_bar(query)
        assert set(bar.head_names) == {"x", "vsite", "p"}
        assert bar.head_names[0] == "x"

    def test_with_sigma_preserves_everything_else(self):
        query = AnalyticalQuery(classifier(), measure(), "count", name="Q")
        sigma = query.sigma.restrict("dage", DimensionRestriction.to_value(28))
        sliced = query.with_sigma(sigma, name="Q_slice")
        assert not sliced.sigma.is_unrestricted()
        assert sliced.classifier == query.classifier
        assert sliced.measure == query.measure
        assert sliced.aggregate.name == "count"
        assert sliced.name == "Q_slice"

    def test_with_dimensions_removing(self):
        query = AnalyticalQuery(classifier(), measure(), "count")
        reduced = query.with_dimensions(["dcity"])
        assert reduced.dimension_names == ("dcity",)
        assert reduced.classifier.body == query.classifier.body

    def test_with_dimensions_requires_body_variables(self):
        query = AnalyticalQuery(classifier(), measure(), "count")
        with pytest.raises(QueryDefinitionError):
            query.with_dimensions(["dcity", "dbrowser"])

    def test_sigma_and_rollup_derivations_reuse_the_validated_bodies(self, monkeypatch):
        """with_sigma / with_rollup / rollup_prefix / base_query keep the
        classifier and measure: rootedness and the schema are not re-checked.
        with_dimensions builds a new classifier head and checks everything."""
        from repro.bgp.query import BGPQuery

        schema = blogger_schema()
        query = AnalyticalQuery(classifier(), measure(), "count", schema=schema)
        checks = []
        monkeypatch.setattr(BGPQuery, "require_rooted", lambda self: checks.append("rooted") or self)
        monkeypatch.setattr(type(schema), "check_homomorphic", lambda self, bgp: checks.append("schema"))
        rolled = query.with_sigma(query.sigma).with_rollup("dcity", _city_hierarchy())
        assert rolled.rollup_prefix(0).rollup == () and rolled.base_query().rollup == ()
        assert checks == []
        query.with_dimensions(["dcity"])
        assert checks == ["rooted", "rooted", "schema", "schema"]

    def test_sigma_and_rollup_derivations_still_check_what_changes(self):
        query = AnalyticalQuery(classifier(), measure(), "count")
        hierarchy = _city_hierarchy()
        with pytest.raises(QueryDefinitionError):
            query.with_sigma(Sigma(["other"]))
        with pytest.raises(QueryDefinitionError):
            query.with_rollup("other", hierarchy)
        with pytest.raises(QueryDefinitionError):
            query.with_rollup("dcity", object())  # not a DimensionHierarchy
        rolled = query.with_rollup("dcity", hierarchy).with_rollup("dcity", hierarchy)
        # A stage whose recorded Σ no longer ranges over the dimensions: the
        # base Σ it hands over, and the prefix stack holding it, are refused.
        rolled.rollup[0].sigma_before = Sigma(["other"])
        with pytest.raises(QueryDefinitionError):
            rolled.base_query()
        with pytest.raises(QueryDefinitionError):
            rolled.rollup_prefix(1)
        rolled.rollup[0].sigma_before = query.sigma
        rolled.rollup[0].dimension = "other"
        with pytest.raises(QueryDefinitionError):
            rolled.rollup_prefix(1)

    def test_describe_mentions_components(self):
        query = make_sites_query()
        text = query.describe()
        assert "classifier" in text and "measure" in text and "count" in text
        assert "Σ" in text


class TestEquality:
    def test_queries_with_same_components_are_equal(self):
        a = AnalyticalQuery(classifier(), measure(), "count")
        b = AnalyticalQuery(classifier(), measure(), "count")
        assert a == b

    def test_different_aggregate_breaks_equality(self):
        a = AnalyticalQuery(classifier(), measure(), "count")
        b = AnalyticalQuery(classifier(), measure(), "sum")
        assert a != b

    def test_equal_range_dices_are_equal(self):
        a = AnalyticalQuery(classifier(), measure(), "count")
        one = a.with_sigma(a.sigma.restrict("dage", DimensionRestriction.to_range(20, 30)))
        other = a.with_sigma(a.sigma.restrict("dage", DimensionRestriction.to_range(20, 30)))
        assert one == other
        assert one != a.with_sigma(a.sigma.restrict("dage", DimensionRestriction.to_range(20, 31)))

    def test_different_sigma_breaks_equality(self):
        a = AnalyticalQuery(classifier(), measure(), "count")
        b = a.with_sigma(a.sigma.restrict("dage", DimensionRestriction.to_value(28)))
        assert a != b
