"""Unit tests for the configurable generic generator used by the experiments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import SchemaDefinitionError
from repro.rdf import EX, RDF
from repro.analytics.evaluator import AnalyticalQueryEvaluator
from repro.olap.operations import DrillIn, DrillOut
from repro.olap.session import OLAPSession
from repro.datagen.generic import (
    GenericConfig,
    generic_base_graph,
    generic_dataset,
    generic_query,
    generic_schema,
)

RDF_TYPE = RDF.term("type")


class TestConfig:
    def test_invalid_configs(self):
        for bad in (
            GenericConfig(facts=0),
            GenericConfig(dimensions=0),
            GenericConfig(dimension_cardinality=0),
            GenericConfig(values_per_dimension=0.5),
            GenericConfig(measures_per_fact=0.0),
        ):
            with pytest.raises(ValueError):
                bad.validate()


class TestGeneration:
    def test_deterministic(self):
        config = GenericConfig(facts=40, seed=21)
        assert generic_base_graph(config) == generic_base_graph(config)

    def test_triple_order_does_not_follow_memory_addresses(self):
        """Two processes build one base graph, one after interning every
        dimension-value IRI in reverse order: the triples come out in one
        order, since interned IRIs hash by identity and no set may order them."""
        build = (
            "import hashlib, sys\n"
            "from repro.datagen.generic import GenericConfig, _dimension_value, generic_base_graph\n"
            "config = GenericConfig(facts=300, dimensions=3, values_per_dimension=2.5, seed=5)\n"
            "values = range(config.dimension_cardinality - 1, -1, -1) if sys.argv[1] == 'reversed' else ()\n"
            "held = [_dimension_value(d, v) for d in (2, 1, 0) for v in values]\n"
            "triples = list(generic_base_graph(config).encoded_triples())\n"
            "print(hashlib.sha256(repr(triples).encode()).hexdigest())\n"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        digests = [
            subprocess.run(
                [sys.executable, "-c", build, order], env=env, capture_output=True, text=True, check=True
            ).stdout
            for order in ("reversed", "none")
        ]
        assert digests[0] == digests[1]

    def test_fact_count_and_dimensions(self):
        config = GenericConfig(facts=30, dimensions=4, with_detail=False)
        graph = generic_base_graph(config)
        facts = list(graph.subjects(RDF_TYPE, EX.term("Fact")))
        assert len(facts) == 30
        for fact in facts[:5]:
            for dimension in range(4):
                assert graph.value(fact, EX.term(f"dim{dimension}")) is not None
            assert graph.value(fact, EX.measure) is not None

    def test_fanout_one_means_single_valued(self):
        config = GenericConfig(facts=50, dimensions=2, values_per_dimension=1.0, with_detail=False)
        graph = generic_base_graph(config)
        for fact in graph.subjects(RDF_TYPE, EX.term("Fact")):
            for dimension in range(2):
                assert len(list(graph.objects(fact, EX.term(f"dim{dimension}")))) == 1

    def test_larger_fanout_produces_multivalued_facts(self):
        config = GenericConfig(facts=80, dimensions=1, values_per_dimension=2.5, seed=8, with_detail=False)
        graph = generic_base_graph(config)
        multivalued = [
            fact
            for fact in graph.subjects(RDF_TYPE, EX.term("Fact"))
            if len(list(graph.objects(fact, EX.term("dim0")))) > 1
        ]
        assert multivalued

    def test_detail_chain_generated_when_enabled(self):
        config = GenericConfig(facts=20, with_detail=True)
        graph = generic_base_graph(config)
        details = list(graph.subjects(RDF_TYPE, EX.term("Detail")))
        assert details
        for detail in details[:5]:
            assert graph.value(detail, EX.detailA) is not None
            assert graph.value(detail, EX.detailB) is not None


class TestSchemaAndQuery:
    def test_schema_matches_config(self):
        config = GenericConfig(dimensions=3, with_detail=True)
        schema = generic_schema(config)
        for dimension in range(3):
            schema.analysis_property(f"dim{dimension}")
        schema.analysis_property("hasDetail")
        schema.analysis_class("Detail")
        without_detail = generic_schema(GenericConfig(dimensions=2, with_detail=False))
        with pytest.raises(SchemaDefinitionError):
            without_detail.analysis_property("hasDetail")

    def test_query_over_subset_of_dimensions(self):
        config = GenericConfig(facts=10, dimensions=4)
        query = generic_query(config, dimensions=[0, 2])
        assert query.dimension_names == ("d0", "d2")

    def test_detail_classifier_requires_detail_data(self):
        config = GenericConfig(facts=10, with_detail=False)
        with pytest.raises(ValueError):
            generic_query(config, include_detail_in_classifier=True)

    def test_dataset_query_is_answerable(self):
        dataset = generic_dataset(GenericConfig(facts=40, dimensions=2))
        evaluator = AnalyticalQueryEvaluator(dataset.instance)
        answer = evaluator.answer(dataset.query)
        assert len(answer) > 0

    def test_rewritings_hold_on_generic_data(self):
        config = GenericConfig(facts=60, dimensions=2, values_per_dimension=1.6, seed=17)
        dataset = generic_dataset(config)
        session = OLAPSession(dataset.instance, dataset.schema)
        query = generic_query(config, aggregate="sum", include_detail_in_classifier=True)
        session.execute(query)
        assert session.compare_strategies(query, DrillOut("d1"))["equal"]
        assert session.compare_strategies(query, DrillIn("da"))["equal"]
