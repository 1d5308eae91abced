"""RDF substrate: data model, triple store, I/O, RDFS reasoning, statistics.

This package is a self-contained, dependency-free RDF toolkit providing just
what the analytics layer needs:

* :mod:`repro.rdf.terms` — IRIs, literals, blank nodes, variables;
* :mod:`repro.rdf.triples` — triples and triple patterns;
* :mod:`repro.rdf.namespaces` — namespaces, prefix maps, RDF/RDFS/XSD;
* :mod:`repro.rdf.dictionary` — term dictionary (integer encoding);
* :mod:`repro.rdf.graph` — in-memory triple store with SPO/POS indexes;
* :mod:`repro.rdf.ntriples`, :mod:`repro.rdf.turtle` — parsers/serializers;
* :mod:`repro.rdf.reasoning` — RDFS saturation;
* :mod:`repro.rdf.statistics` — statistics for join-order estimation.
"""

from repro.rdf.dictionary import TermDictionary
from repro.rdf.graph import DEFAULT_CHANGE_LOG_LIMIT, Graph, GraphDelta
from repro.rdf.namespaces import ANS, EX, RDF, RDFS, XSD, Namespace, PrefixMap
from repro.rdf.ntriples import (
    dump_ntriples,
    load_ntriples,
    parse_ntriples,
    serialize_ntriples,
)
from repro.rdf.reasoning import RDFSRules, saturate
from repro.rdf.statistics import GraphStatistics
from repro.rdf.terms import IRI, BlankNode, Literal, Term, Variable, fresh_blank_node
from repro.rdf.triples import Triple, TriplePattern
from repro.rdf.turtle import dump_turtle, load_turtle, parse_turtle, serialize_turtle

__all__ = [
    "IRI",
    "Literal",
    "BlankNode",
    "Variable",
    "Term",
    "fresh_blank_node",
    "Triple",
    "TriplePattern",
    "Namespace",
    "PrefixMap",
    "RDF",
    "RDFS",
    "XSD",
    "EX",
    "ANS",
    "TermDictionary",
    "Graph",
    "GraphDelta",
    "DEFAULT_CHANGE_LOG_LIMIT",
    "GraphStatistics",
    "RDFSRules",
    "saturate",
    "parse_ntriples",
    "serialize_ntriples",
    "load_ntriples",
    "dump_ntriples",
    "parse_turtle",
    "serialize_turtle",
    "load_turtle",
    "dump_turtle",
]
