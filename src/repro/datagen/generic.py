"""Configurable generic generator for scaling and ablation workloads.

The blogger and video generators mirror the paper's examples; the benchmark
workloads and the differential oracles need finer control: an exact number of
facts, an exact number of dimensions with chosen cardinalities, an exact
multi-value fan-out per dimension, and a chosen number of measure values per
fact.  :func:`generic_dataset` provides that: a star-shaped dataset where

* ``Fact`` resources form the analysis class of interest;
* each of ``dimensions`` properties ``dim0 .. dim{n-1}`` links every fact to
  one or more values drawn from a dimension-specific value pool;
* a ``measure`` property links every fact to one or more numeric literals;
* an optional ``detail`` property links every fact to an intermediate
  ``Detail`` resource that carries two further properties (``detailA``,
  ``detailB``) — the structure needed to exercise DRILL-IN's auxiliary
  query over a chain of existential variables.

Together with :func:`generic_schema` and pre-built classifier/measure
queries (:func:`generic_query`), this is the workload generator behind
EXP-2 ... EXP-8 in DESIGN.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.rdf.graph import Graph
from repro.rdf.namespaces import EX, RDF, Namespace
from repro.rdf.terms import IRI, Literal, Variable
from repro.rdf.triples import Triple, TriplePattern
from repro.bgp.query import BGPQuery
from repro.analytics.instance import materialize_instance
from repro.analytics.query import AnalyticalQuery
from repro.analytics.schema import AnalyticalSchema
from repro.datagen.distributions import multi_valued_count, pick_zipf

__all__ = ["GenericConfig", "GenericDataset", "generic_dataset", "generic_schema", "generic_query"]

_RDF_TYPE = RDF.term("type")


@dataclass
class GenericConfig:
    """Parameters of the generic star-shaped generator."""

    facts: int = 1000
    dimensions: int = 2
    dimension_cardinality: int = 20
    values_per_dimension: float = 1.0
    measures_per_fact: float = 2.0
    measure_max: int = 1000
    with_detail: bool = True
    detail_cardinality: int = 50
    detail_a_cardinality: int = 10
    detail_b_cardinality: int = 5
    zipf_exponent: float = 0.0
    seed: int = 42

    def validate(self) -> None:
        if self.facts <= 0:
            raise ValueError("facts must be positive")
        if self.dimensions <= 0:
            raise ValueError("dimensions must be positive")
        if self.dimension_cardinality <= 0:
            raise ValueError("dimension_cardinality must be positive")
        if self.values_per_dimension < 1.0:
            raise ValueError("values_per_dimension must be at least 1")
        if self.measures_per_fact < 1.0:
            raise ValueError("measures_per_fact must be at least 1")


@dataclass
class GenericDataset:
    """A generated generic scenario and its ready-to-run analytical query."""

    config: GenericConfig
    base_graph: Graph
    schema: AnalyticalSchema
    instance: Graph
    #: The canonical analytical query over this dataset (count of measures
    #: classified by every generated dimension).
    query: AnalyticalQuery


def _dimension_property(index: int, namespace: Namespace = EX) -> IRI:
    return namespace.term(f"dim{index}")


def _dimension_value(dimension: int, value: int, namespace: Namespace = EX) -> IRI:
    return namespace.term(f"dimvalue/{dimension}/{value}")


def generic_base_graph(config: GenericConfig, namespace: Namespace = EX) -> Graph:
    """Generate the base RDF graph described in the module docstring."""
    config.validate()
    rng = random.Random(config.seed)
    graph = Graph(name=f"generic_{config.facts}x{config.dimensions}")

    dimension_values: List[List[IRI]] = []
    for dimension in range(config.dimensions):
        values = [
            _dimension_value(dimension, value, namespace)
            for value in range(config.dimension_cardinality)
        ]
        dimension_values.append(values)
        for value in values:
            graph.add(Triple(value, _RDF_TYPE, namespace.term("DimensionValue")))

    details = [namespace.term(f"detail/{index}") for index in range(config.detail_cardinality)]
    if config.with_detail:
        for index, detail in enumerate(details):
            graph.add(Triple(detail, _RDF_TYPE, namespace.term("Detail")))
            graph.add(
                Triple(detail, namespace.detailA, Literal(f"A{index % config.detail_a_cardinality}"))
            )
            graph.add(
                Triple(detail, namespace.detailB, Literal(f"B{index % config.detail_b_cardinality}"))
            )

    for index in range(config.facts):
        fact = namespace.term(f"fact/{index}")
        graph.add(Triple(fact, _RDF_TYPE, namespace.term("Fact")))
        for dimension in range(config.dimensions):
            count = multi_valued_count(rng, config.values_per_dimension, maximum=5)
            # Deduplicated in pick order: interned IRIs hash by identity, so a
            # set's order would follow memory addresses, not the seed.
            picks = (pick_zipf(rng, dimension_values[dimension], config.zipf_exponent) for _ in range(count))
            for value in dict.fromkeys(picks):
                graph.add(Triple(fact, _dimension_property(dimension, namespace), value))
        for _ in range(multi_valued_count(rng, config.measures_per_fact, maximum=8)):
            graph.add(Triple(fact, namespace.measure, Literal(rng.randrange(1, config.measure_max))))
        if config.with_detail:
            graph.add(Triple(fact, namespace.hasDetail, pick_zipf(rng, details, config.zipf_exponent)))
    return graph


def generic_schema(config: GenericConfig, namespace: Namespace = EX) -> AnalyticalSchema:
    """The analytical schema matching :func:`generic_base_graph`."""
    schema = AnalyticalSchema(name="GenericAnS", namespace=namespace)
    schema.add_class_from_type("Fact")
    schema.add_class_from_type("DimensionValue")

    subject = Variable("s")
    object_ = Variable("o")

    def object_class(class_name: str, predicate: IRI) -> None:
        schema.add_class(
            class_name,
            BGPQuery([object_], [TriplePattern(subject, predicate, object_)], name=f"def_{class_name}"),
        )

    object_class("MeasureValue", namespace.measure)
    for dimension in range(config.dimensions):
        schema.add_property_from_predicate(
            f"dim{dimension}", "Fact", "DimensionValue", base_predicate=_dimension_property(dimension, namespace)
        )
    schema.add_property_from_predicate("measure", "Fact", "MeasureValue")
    if config.with_detail:
        schema.add_class_from_type("Detail")
        object_class("DetailA", namespace.detailA)
        object_class("DetailB", namespace.detailB)
        schema.add_property_from_predicate("hasDetail", "Fact", "Detail")
        schema.add_property_from_predicate("detailA", "Detail", "DetailA")
        schema.add_property_from_predicate("detailB", "Detail", "DetailB")
    return schema


def generic_query(
    config: GenericConfig,
    aggregate: str = "count",
    dimensions: Optional[Sequence[int]] = None,
    include_detail_in_classifier: bool = False,
    namespace: Namespace = EX,
    name: str = "Q",
) -> AnalyticalQuery:
    """Build the canonical AnQ over a generic dataset.

    The classifier classifies facts by the chosen dimensions (all generated
    dimensions by default); with ``include_detail_in_classifier=True`` the
    classifier body additionally walks ``hasDetail`` / ``detailA`` /
    ``detailB`` through existential variables, making ``detailA`` /
    ``detailB`` available as DRILL-IN targets.  The measure is the fact's
    ``measure`` values, aggregated with ``aggregate``.
    """
    chosen = list(range(config.dimensions)) if dimensions is None else list(dimensions)
    fact = Variable("x")
    dimension_variables = [Variable(f"d{dimension}") for dimension in chosen]

    body = [TriplePattern(fact, _RDF_TYPE, namespace.term("Fact"))]
    for dimension, variable in zip(chosen, dimension_variables):
        body.append(TriplePattern(fact, _dimension_property(dimension, namespace), variable))
    if include_detail_in_classifier:
        if not config.with_detail:
            raise ValueError("the dataset was generated without detail resources")
        detail = Variable("detail")
        body.append(TriplePattern(fact, namespace.hasDetail, detail))
        body.append(TriplePattern(detail, namespace.detailA, Variable("da")))
        body.append(TriplePattern(detail, namespace.detailB, Variable("db")))
    classifier = BGPQuery([fact] + dimension_variables, body, name="c")

    measure_value = Variable("v")
    measure = BGPQuery(
        [fact, measure_value],
        [
            TriplePattern(fact, _RDF_TYPE, namespace.term("Fact")),
            TriplePattern(fact, namespace.measure, measure_value),
        ],
        name="m",
    )
    return AnalyticalQuery(classifier, measure, aggregate, name=name)


def generic_dataset(config: Optional[GenericConfig] = None, aggregate: str = "count") -> GenericDataset:
    """Generate base graph + schema + instance + canonical query in one call."""
    config = config or GenericConfig()
    base_graph = generic_base_graph(config)
    schema = generic_schema(config)
    instance = materialize_instance(schema, base_graph, name="generic_instance")
    query = generic_query(config, aggregate=aggregate)
    return GenericDataset(
        config=config, base_graph=base_graph, schema=schema, instance=instance, query=query
    )
