"""Unit tests for the SPARQL 1.1 export of analytical queries."""

import pytest

from repro.errors import QueryDefinitionError
from repro.rdf import EX, Literal
from repro.rdf.namespaces import PrefixMap
from repro.analytics import AnalyticalQuery
from repro.analytics.sigma import DimensionRestriction
from repro.analytics.sparql import SPARQL_AGGREGATES, to_sparql
from repro.olap import Dice, Slice

from tests.conftest import make_sites_query, make_words_query


_INT_20, _INT_30 = Literal(20).n3(), Literal(30).n3()


@pytest.fixture()
def prefixes() -> PrefixMap:
    prefix_map = PrefixMap()
    prefix_map.bind("ex", "http://example.org/")
    return prefix_map


class TestBasicRendering:
    def test_contains_grouping_and_aggregate(self, prefixes):
        text = to_sparql(make_sites_query(), prefixes)
        assert "SELECT ?dage ?dcity (COUNT(?vsite) AS ?agg)" in text
        assert text.strip().endswith("GROUP BY ?dage ?dcity")

    def test_classifier_is_a_distinct_subselect(self, prefixes):
        text = to_sparql(make_sites_query(), prefixes)
        assert "SELECT DISTINCT ?x ?dage ?dcity WHERE {" in text
        assert "?x ex:hasAge ?dage ." in text

    def test_measure_body_in_outer_pattern(self, prefixes):
        text = to_sparql(make_sites_query(), prefixes)
        outer = text.split("}", 1)[1]  # after the inner select's closing brace
        assert "?x ex:wrotePost ?p ." in text
        assert "?p ex:postedOn ?vsite ." in text

    def test_prefix_declarations_emitted(self, prefixes):
        text = to_sparql(make_sites_query(), prefixes)
        assert text.startswith("PREFIX ex: <http://example.org/>")

    def test_without_prefixes_uses_full_iris(self):
        text = to_sparql(make_sites_query())
        assert "<http://example.org/hasAge>" in text

    def test_avg_aggregate(self, prefixes):
        text = to_sparql(make_words_query(), prefixes)
        assert "(AVG(?vwords) AS ?agg)" in text

    def test_every_registered_aggregate_has_a_template(self):
        for name in ("count", "count_distinct", "sum", "avg", "min", "max"):
            assert name in SPARQL_AGGREGATES

    def test_unknown_aggregate_rejected(self):
        from repro.algebra.aggregates import AggregateFunction

        median = AggregateFunction("median", lambda values: 0, distributive=False)
        query = make_sites_query()
        weird = AnalyticalQuery(query.classifier, query.measure, median)
        with pytest.raises(QueryDefinitionError):
            to_sparql(weird)


class TestSigmaRendering:
    def test_value_restriction_becomes_values_block(self, prefixes):
        query = Dice({"dcity": [EX.term("Madrid"), EX.term("NY")]}).apply(make_sites_query())
        text = to_sparql(query, prefixes)
        assert "VALUES ?dcity {" in text
        assert "ex:Madrid" in text and "ex:NY" in text

    def test_slice_becomes_singleton_values_block(self, prefixes):
        query = Slice("dage", Literal(35)).apply(make_sites_query())
        text = to_sparql(query, prefixes)
        assert 'VALUES ?dage { "35"' in text

    def test_range_restriction_becomes_filter(self, prefixes):
        query = Dice({"dage": (20, 30)}).apply(make_sites_query())
        text = to_sparql(query, prefixes)
        assert f"FILTER(?dage >= {_INT_20} && ?dage <= {_INT_30})" in text

    def test_exclusive_range_uses_strict_comparisons(self, prefixes):
        query = Dice({"dage": DimensionRestriction.to_range(20, 30, inclusive=False)}).apply(make_sites_query())
        text = to_sparql(query, prefixes)
        assert f"FILTER(?dage > {_INT_20} && ?dage < {_INT_30})" in text

    def test_string_bounds_render_as_literals(self, prefixes):
        query = Dice({"dage": ("a", "m")}).apply(make_sites_query())
        text = to_sparql(query, prefixes)
        assert 'FILTER(?dage >= "a" && ?dage <= "m")' in text

    def test_intersected_ranges_render_the_tighter_range(self, prefixes):
        diced = Dice({"dage": (20, 40)}).apply(make_sites_query())
        tighter = Dice({"dage": DimensionRestriction.to_range(25, 60, inclusive=False)}).apply(diced)
        text = to_sparql(tighter, prefixes)
        assert f"FILTER(?dage > {Literal(25).n3()} && ?dage <= {Literal(40).n3()})" in text

    def test_infinite_bounds_render_as_xsd_doubles(self, prefixes):
        """XSD spells the infinite doubles ``INF``/``-INF``; Python's ``inf``
        would be an ill-typed literal every comparison errors on."""
        query = Dice({"dage": (float("-inf"), 30)}).apply(make_sites_query())
        text = to_sparql(query, prefixes)
        minus_inf = Literal("-INF", "http://www.w3.org/2001/XMLSchema#double").n3()
        assert f"FILTER(?dage >= {minus_inf} && ?dage <= {_INT_30})" in text
        assert '"-inf"' not in text

    def test_unrestricted_sigma_adds_no_filters(self, prefixes):
        text = to_sparql(make_sites_query(), prefixes)
        assert "VALUES" not in text and "FILTER" not in text


class TestZeroDimensionQuery:
    def test_global_aggregate_has_no_group_by(self, prefixes):
        from repro.bgp.parser import parse_query

        classifier = parse_query("c(?x) :- ?x rdf:type ex:Blogger")
        measure = make_sites_query().measure
        query = AnalyticalQuery(classifier, measure, "count")
        text = to_sparql(query, prefixes)
        assert "GROUP BY" not in text
        assert "SELECT (COUNT(?vsite) AS ?agg)" in text
