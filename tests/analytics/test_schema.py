"""Unit tests for analytical schemas and the homomorphism check."""

import pytest

from repro.errors import HomomorphismError, SchemaDefinitionError
from repro.rdf import EX, RDF
from repro.rdf.terms import Variable
from repro.rdf.triples import TriplePattern
from repro.bgp.parser import parse_query
from repro.bgp.query import BGPQuery
from repro.analytics.schema import AnalyticalSchema
from repro.datagen.blogger import blogger_schema

RDF_TYPE = RDF.term("type")


class TestRegistration:
    def test_add_class_with_explicit_query(self):
        schema = AnalyticalSchema(namespace=EX)
        query = parse_query("def(?x) :- ?x rdf:type ex:Blogger")
        node = schema.add_class("Blogger", query)
        assert node.iri == EX.Blogger
        assert schema.analysis_class(EX.Blogger).label == "Blogger"

    def test_add_class_from_type_default(self):
        schema = AnalyticalSchema(namespace=EX)
        node = schema.add_class_from_type("Blogger")
        assert node.query.arity() == 1
        assert TriplePattern(Variable("x"), RDF_TYPE, EX.Blogger) in node.query.body

    def test_class_query_must_be_unary(self):
        schema = AnalyticalSchema(namespace=EX)
        binary = parse_query("def(?s, ?o) :- ?s ex:wrotePost ?o")
        with pytest.raises(SchemaDefinitionError):
            schema.add_class("Blogger", binary)

    def test_duplicate_class_rejected(self):
        schema = AnalyticalSchema(namespace=EX)
        schema.add_class_from_type("Blogger")
        with pytest.raises(SchemaDefinitionError):
            schema.add_class_from_type("Blogger")

    def test_add_property_requires_declared_endpoints(self):
        schema = AnalyticalSchema(namespace=EX)
        schema.add_class_from_type("Blogger")
        with pytest.raises(SchemaDefinitionError):
            schema.add_property_from_predicate("livesIn", "Blogger", "City")

    def test_property_query_must_be_binary(self):
        schema = AnalyticalSchema(namespace=EX)
        schema.add_class_from_type("Blogger")
        schema.add_class_from_type("City")
        unary = parse_query("def(?x) :- ?x rdf:type ex:Blogger")
        with pytest.raises(SchemaDefinitionError):
            schema.add_property("livesIn", "Blogger", "City", unary)

    def test_duplicate_property_rejected(self):
        schema = AnalyticalSchema(namespace=EX)
        schema.add_class_from_type("Blogger")
        schema.add_class_from_type("City")
        schema.add_property_from_predicate("livesIn", "Blogger", "City")
        with pytest.raises(SchemaDefinitionError):
            schema.add_property_from_predicate("livesIn", "Blogger", "City")

    def test_lookup_unknown_entities(self):
        schema = AnalyticalSchema(namespace=EX)
        with pytest.raises(SchemaDefinitionError):
            schema.analysis_class("Nothing")
        with pytest.raises(SchemaDefinitionError):
            schema.analysis_property("nothing")

    def test_listings(self):
        schema = blogger_schema()
        assert EX.Blogger in {node.iri for node in schema.classes}
        assert EX.wrotePost in {edge.iri for edge in schema.properties}


class TestHomomorphism:
    def test_example1_classifier_and_measure_are_homomorphic(self):
        schema = blogger_schema()
        classifier = parse_query(
            "c(?x, ?dage, ?dcity) :- ?x rdf:type ex:Blogger, ?x ex:hasAge ?dage, ?x ex:livesIn ?dcity"
        )
        measure = parse_query(
            "m(?x, ?vsite) :- ?x rdf:type ex:Blogger, ?x ex:wrotePost ?p, ?p ex:postedOn ?vsite"
        )
        schema.check_homomorphic(classifier)
        schema.check_homomorphic(measure)

    def test_unknown_property_rejected(self):
        schema = blogger_schema()
        query = parse_query("q(?x) :- ?x ex:worksAt ?y")
        with pytest.raises(HomomorphismError):
            schema.check_homomorphic(query)

    def test_unknown_class_rejected(self):
        schema = blogger_schema()
        query = parse_query("q(?x) :- ?x rdf:type ex:Journalist")
        with pytest.raises(HomomorphismError):
            schema.check_homomorphic(query)

    def test_variable_predicate_rejected(self):
        schema = blogger_schema()
        x, p, y = Variable("x"), Variable("p"), Variable("y")
        query = BGPQuery([x], [TriplePattern(x, p, y)])
        with pytest.raises(HomomorphismError):
            schema.check_homomorphic(query)

    def test_variable_class_rejected(self):
        schema = blogger_schema()
        x, c = Variable("x"), Variable("c")
        query = BGPQuery([x], [TriplePattern(x, RDF_TYPE, c)])
        with pytest.raises(HomomorphismError):
            schema.check_homomorphic(query)

    def test_conflicting_class_constraints_rejected(self):
        schema = blogger_schema()
        # ?y is forced to be both a City (livesIn target) and a Site (postedOn target).
        query = parse_query("q(?x) :- ?x ex:livesIn ?y, ?p ex:postedOn ?y")
        with pytest.raises(HomomorphismError):
            schema.check_homomorphic(query)

    def test_consistent_shared_variable_accepted(self):
        schema = blogger_schema()
        # ?p is a BlogPost from both wrotePost (target) and postedOn (source).
        query = parse_query("q(?x) :- ?x ex:wrotePost ?p, ?p ex:postedOn ?s")
        schema.check_homomorphic(query)


class TestDescribe:
    def test_describe_lists_classes_and_properties(self):
        schema = blogger_schema()
        text = schema.describe()
        assert "Blogger" in text and "wrotePost" in text
        assert "classes" in text and "properties" in text
