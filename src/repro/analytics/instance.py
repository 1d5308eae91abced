"""Materialization of analytical-schema instances.

The *instance* of an AnS with respect to a base RDF graph is itself an RDF
graph (Section 2): for each analysis class ``C`` defined by unary query
``q_C``, it holds a triple ``u rdf:type C`` for every URI ``u`` in
``q_C(base)``; for each analysis property ``p`` defined by binary query
``q_p``, it holds a triple ``s p o`` for every pair ``(s, o)`` in
``q_p(base)``.

Analytical queries are then evaluated over this instance graph.  The
instance can also be built *incrementally* class-by-class (useful in tests)
and re-saturated when the base graph carries RDFS schema statements.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import SchemaDefinitionError
from repro.rdf.graph import Graph
from repro.rdf.namespaces import RDF
from repro.rdf.reasoning import saturate
from repro.rdf.terms import IRI, Literal
from repro.rdf.triples import Triple
from repro.bgp.evaluator import BGPEvaluator
from repro.analytics.schema import AnalyticalSchema

__all__ = ["materialize_instance", "InstanceBuilder"]

_RDF_TYPE = RDF.term("type")


class InstanceBuilder:
    """Builds the instance graph of an analytical schema over a base graph.

    Parameters
    ----------
    schema:
        The analytical schema.
    base_graph:
        The base RDF data (optionally RDFS-saturated beforehand).
    saturate_base:
        When True, the base graph is RDFS-saturated (on a copy) before the
        node/edge defining queries are evaluated, so that implicit triples
        contribute to the analysis view.
    """

    def __init__(self, schema: AnalyticalSchema, base_graph: Graph, saturate_base: bool = False):
        self.schema = schema
        self._base = saturate(base_graph) if saturate_base else base_graph
        self._evaluator = BGPEvaluator(self._base)

    def build(self, name: Optional[str] = None) -> Graph:
        """Materialize the full instance graph."""
        instance = Graph(name=name or f"instance_of_{self.schema.name}")
        self.populate_classes(instance)
        self.populate_properties(instance)
        return instance

    def populate_classes(self, instance: Graph) -> int:
        """Add the ``rdf:type`` triples for every analysis class; return the count added."""
        added = 0
        for analysis_class in self.schema.classes:
            added += self.populate_class(instance, analysis_class.iri)
        return added

    def populate_class(self, instance: Graph, class_iri: IRI) -> int:
        """Add the ``rdf:type`` triples for one analysis class."""
        analysis_class = self.schema.analysis_class(class_iri)
        result = self._evaluator.evaluate(analysis_class.query, semantics="set")
        added = 0
        for (member,) in result:
            if isinstance(member, Literal):
                # Value classes (Age, Name, ...) may have literal members; RDF
                # cannot state `literal rdf:type C`, and analytical queries
                # reach such members through the analysis properties anyway,
                # so the membership triple is simply not materialized.
                continue
            if instance.add(Triple(member, _RDF_TYPE, analysis_class.iri)):
                added += 1
        return added

    def populate_properties(self, instance: Graph) -> int:
        """Add the property triples for every analysis property; return the count added."""
        added = 0
        for analysis_property in self.schema.properties:
            added += self.populate_property(instance, analysis_property.iri)
        return added

    def populate_property(self, instance: Graph, property_iri: IRI) -> int:
        """Add the triples for one analysis property."""
        analysis_property = self.schema.analysis_property(property_iri)
        result = self._evaluator.evaluate(analysis_property.query, semantics="set")
        added = 0
        for subject, object_ in result:
            if isinstance(subject, Literal):
                raise SchemaDefinitionError(
                    f"the defining query of property {analysis_property.label} returned a literal "
                    f"in subject position"
                )
            if instance.add(Triple(subject, analysis_property.iri, object_)):
                added += 1
        return added


def materialize_instance(
    schema: AnalyticalSchema,
    base_graph: Graph,
    saturate_base: bool = False,
    name: Optional[str] = None,
) -> Graph:
    """One-shot convenience wrapper around :class:`InstanceBuilder`."""
    return InstanceBuilder(schema, base_graph, saturate_base=saturate_base).build(name=name)
