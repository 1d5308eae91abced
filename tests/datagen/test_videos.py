"""Unit tests for the video-portal scenario generator (Example 6)."""

import pytest

from repro.rdf import EX, RDF
from repro.analytics.evaluator import AnalyticalQueryEvaluator
from repro.datagen.videos import (
    VideoConfig,
    video_base_graph,
    video_dataset,
    video_schema,
    views_per_url_query,
)

RDF_TYPE = RDF.term("type")


class TestConfig:
    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            VideoConfig(videos=0).validate()
        with pytest.raises(ValueError):
            VideoConfig(postings_per_video=0.5).validate()


class TestBaseGraph:
    def test_deterministic(self):
        config = VideoConfig(videos=20, seed=3)
        assert video_base_graph(config) == video_base_graph(config)

    def test_counts(self):
        graph = video_base_graph(VideoConfig(videos=25, websites=7))
        assert len(list(graph.subjects(RDF_TYPE, EX.Video))) == 25
        assert len(list(graph.subjects(RDF_TYPE, EX.Website))) == 7

    def test_every_video_has_views_and_a_posting(self):
        graph = video_base_graph(VideoConfig(videos=15))
        for video in graph.subjects(RDF_TYPE, EX.Video):
            assert graph.value(video, EX.viewNum) is not None
            assert graph.value(video, EX.postedOn) is not None

    def test_every_website_has_url_and_browser(self):
        graph = video_base_graph(VideoConfig(videos=10, websites=5))
        for website in graph.subjects(RDF_TYPE, EX.Website):
            assert graph.value(website, EX.hasUrl) is not None
            assert graph.value(website, EX.supportsBrowser) is not None

    def test_multivalued_browsers_exist(self):
        graph = video_base_graph(VideoConfig(videos=10, websites=20, browsers_per_website=2.5, seed=2))
        multi = [
            website
            for website in graph.subjects(RDF_TYPE, EX.Website)
            if len(list(graph.objects(website, EX.supportsBrowser))) > 1
        ]
        assert multi


class TestSchemaAndQueries:
    def test_schema_vocabulary(self):
        schema = video_schema()
        for class_name in ("Video", "Website", "Url", "Browser", "ViewCount"):
            assert schema.analysis_class(class_name)
        for property_name in ("postedOn", "hasUrl", "supportsBrowser", "viewNum"):
            assert schema.analysis_property(property_name)

    def test_views_query_structure(self):
        query = views_per_url_query()
        assert query.dimension_names == ("d2",)
        assert query.aggregate.name == "sum"
        # d3 (the browser) is an existential classifier variable: the drill-in target.
        assert "d3" in {variable.name for variable in query.classifier.existential_variables()}

    def test_dataset_end_to_end(self):
        dataset = video_dataset(VideoConfig(videos=20, websites=6))
        evaluator = AnalyticalQueryEvaluator(dataset.instance)
        answer = evaluator.answer(views_per_url_query(dataset.schema))
        assert len(answer) > 0
