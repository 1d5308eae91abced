"""Unit tests for AnS instance materialization."""

import pytest

from repro.rdf import EX, Graph, Literal, RDF, RDFS, Triple
from repro.bgp.parser import parse_query
from repro.analytics.instance import InstanceBuilder, materialize_instance
from repro.analytics.schema import AnalyticalSchema
from repro.datagen.blogger import blogger_schema

RDF_TYPE = RDF.term("type")


@pytest.fixture()
def base_graph() -> Graph:
    graph = Graph()
    graph.add(Triple(EX.user1, RDF_TYPE, EX.Blogger))
    graph.add(Triple(EX.user2, RDF_TYPE, EX.Blogger))
    graph.add(Triple(EX.user1, EX.hasAge, Literal(28)))
    graph.add(Triple(EX.user1, EX.livesIn, EX.Madrid))
    graph.add(Triple(EX.Madrid, RDF_TYPE, EX.City))
    graph.add(Triple(EX.user1, EX.wrotePost, EX.p1))
    graph.add(Triple(EX.p1, RDF_TYPE, EX.BlogPost))
    graph.add(Triple(EX.p1, EX.postedOn, EX.s1))
    graph.add(Triple(EX.s1, RDF_TYPE, EX.Site))
    graph.add(Triple(EX.p1, EX.hasWordCount, Literal(100)))
    return graph


class TestMaterialization:
    def test_classes_and_properties_materialized(self, base_graph):
        schema = blogger_schema()
        instance = materialize_instance(schema, base_graph)
        assert Triple(EX.user1, RDF_TYPE, EX.Blogger) in instance
        assert Triple(EX.user1, EX.livesIn, EX.Madrid) in instance
        assert Triple(EX.p1, EX.hasWordCount, Literal(100)) in instance

    def test_literal_class_members_are_skipped_not_errors(self, base_graph):
        schema = blogger_schema()
        instance = materialize_instance(schema, base_graph)
        # The Age class extent is {28}, a literal: no rdf:type triple is
        # produced for it, and materialization does not fail.
        assert len(list(instance.triples(None, RDF_TYPE, EX.Age))) == 0

    def test_instance_only_contains_schema_vocabulary(self, base_graph):
        base_graph.add(Triple(EX.user1, EX.irrelevantProperty, Literal("noise")))
        schema = blogger_schema()
        instance = materialize_instance(schema, base_graph)
        assert len(list(instance.triples(None, EX.irrelevantProperty, None))) == 0

    def test_instance_graph_is_named(self, base_graph):
        instance = materialize_instance(blogger_schema(), base_graph, name="my_instance")
        assert instance.name == "my_instance"

    def test_empty_base_graph_gives_empty_instance(self):
        instance = materialize_instance(blogger_schema(), Graph())
        assert len(instance) == 0


class TestCustomLenses:
    def test_analysis_class_defined_by_a_join_query(self, base_graph):
        """An AnS node can be defined by an arbitrary unary query (a 'lens')."""
        schema = AnalyticalSchema(namespace=EX)
        schema.add_class(
            "ActiveBlogger",
            parse_query("def(?x) :- ?x rdf:type ex:Blogger, ?x ex:wrotePost ?p"),
        )
        instance = materialize_instance(schema, base_graph)
        members = set(instance.subjects(RDF_TYPE, EX.ActiveBlogger))
        assert members == {EX.user1}

    def test_analysis_property_defined_by_a_path_query(self, base_graph):
        """An AnS edge can join several base properties into one analysis property."""
        schema = AnalyticalSchema(namespace=EX)
        schema.add_class_from_type("Blogger")
        schema.add_class_from_type("Site")
        schema.add_property(
            "postsOnSite",
            "Blogger",
            "Site",
            parse_query("def(?x, ?s) :- ?x ex:wrotePost ?p, ?p ex:postedOn ?s"),
        )
        instance = materialize_instance(schema, base_graph)
        assert Triple(EX.user1, EX.postsOnSite, EX.s1) in instance


class TestIncrementalBuilder:
    def test_populate_single_class_and_property(self, base_graph):
        schema = blogger_schema()
        builder = InstanceBuilder(schema, base_graph)
        instance = Graph()
        added_classes = builder.populate_class(instance, EX.Blogger)
        assert added_classes == 2
        added_properties = builder.populate_property(instance, EX.livesIn)
        assert added_properties == 1
        assert Triple(EX.user1, EX.livesIn, EX.Madrid) in instance

    def test_populate_all_matches_build(self, base_graph):
        schema = blogger_schema()
        via_build = InstanceBuilder(schema, base_graph).build()
        incremental = Graph()
        builder = InstanceBuilder(schema, base_graph)
        builder.populate_classes(incremental)
        builder.populate_properties(incremental)
        assert incremental == via_build


class TestSaturatedBase:
    def test_rdfs_saturation_feeds_class_definitions(self):
        graph = Graph()
        graph.add(Triple(EX.PowerBlogger, RDFS.term("subClassOf"), EX.Blogger))
        graph.add(Triple(EX.user9, RDF_TYPE, EX.PowerBlogger))
        schema = AnalyticalSchema(namespace=EX)
        schema.add_class_from_type("Blogger")
        without = materialize_instance(schema, graph, saturate_base=False)
        with_saturation = materialize_instance(schema, graph, saturate_base=True)
        assert Triple(EX.user9, RDF_TYPE, EX.Blogger) not in without
        assert Triple(EX.user9, RDF_TYPE, EX.Blogger) in with_saturation
