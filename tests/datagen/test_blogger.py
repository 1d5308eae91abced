"""Unit tests for the blogger scenario generator (the paper's running example)."""

import pytest

from repro.rdf import EX, RDF
from repro.analytics.evaluator import AnalyticalQueryEvaluator
from repro.datagen.blogger import (
    BloggerConfig,
    blogger_base_graph,
    blogger_dataset,
    blogger_schema,
    sites_per_blogger_query,
    words_per_blogger_query,
)

RDF_TYPE = RDF.term("type")


class TestConfig:
    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            BloggerConfig(bloggers=0).validate()
        with pytest.raises(ValueError):
            BloggerConfig(cities=0).validate()
        with pytest.raises(ValueError):
            BloggerConfig(multi_city_fraction=1.5).validate()
        with pytest.raises(ValueError):
            BloggerConfig(missing_age_fraction=-0.1).validate()


class TestBaseGraph:
    def test_generation_is_deterministic(self):
        config = BloggerConfig(bloggers=30, seed=9)
        assert blogger_base_graph(config) == blogger_base_graph(config)

    def test_different_seeds_differ(self):
        a = blogger_base_graph(BloggerConfig(bloggers=30, seed=1))
        b = blogger_base_graph(BloggerConfig(bloggers=30, seed=2))
        assert a != b

    def test_requested_number_of_bloggers(self):
        graph = blogger_base_graph(BloggerConfig(bloggers=25))
        assert len(list(graph.subjects(RDF_TYPE, EX.Blogger))) == 25

    def test_posts_have_sites_and_word_counts(self):
        graph = blogger_base_graph(BloggerConfig(bloggers=20))
        posts = list(graph.subjects(RDF_TYPE, EX.BlogPost))
        assert posts
        for post in posts[:10]:
            assert graph.value(post, EX.postedOn) is not None
            assert graph.value(post, EX.hasWordCount) is not None

    def test_multi_city_fraction_produces_multivalued_bloggers(self):
        graph = blogger_base_graph(BloggerConfig(bloggers=60, multi_city_fraction=0.5, seed=4))
        multi = [
            blogger
            for blogger in graph.subjects(RDF_TYPE, EX.Blogger)
            if len(list(graph.objects(blogger, EX.livesIn))) > 1
        ]
        assert multi  # some bloggers live in two cities

    def test_missing_age_fraction(self):
        graph = blogger_base_graph(BloggerConfig(bloggers=60, missing_age_fraction=0.5, seed=4))
        without_age = [
            blogger
            for blogger in graph.subjects(RDF_TYPE, EX.Blogger)
            if graph.value(blogger, EX.hasAge) is None
        ]
        assert without_age


class TestSchemaAndDataset:
    def test_schema_declares_figure1_vocabulary(self):
        schema = blogger_schema()
        for class_name in ("Blogger", "BlogPost", "City", "Site", "Age", "Name", "Value"):
            assert schema.analysis_class(class_name)
        for property_name in (
            "acquaintedWith",
            "identifiedBy",
            "hasAge",
            "livesIn",
            "wrotePost",
            "postedOn",
            "hasWordCount",
        ):
            assert schema.analysis_property(property_name)

    def test_dataset_instance_is_queryable(self):
        dataset = blogger_dataset(BloggerConfig(bloggers=30))
        assert len(dataset.instance) > 0
        evaluator = AnalyticalQueryEvaluator(dataset.instance)
        answer = evaluator.answer(sites_per_blogger_query(dataset.schema))
        assert len(answer) > 0

    def test_paper_queries_are_homomorphic_to_the_schema(self):
        schema = blogger_schema()
        sites_per_blogger_query(schema)  # raises on violation
        words_per_blogger_query(schema)

    def test_queries_have_expected_structure(self):
        query = sites_per_blogger_query()
        assert query.dimension_names == ("dage", "dcity")
        assert query.aggregate.name == "count"
        avg_query = words_per_blogger_query()
        assert avg_query.aggregate.name == "avg"
