"""Analytical schemas (AnS).

An analytical schema is "a labeled directed graph, whose nodes are analysis
classes and whose edges are analysis properties" (Section 2 of the paper).
Each node is *defined* by a unary BGP query over the base RDF graph, and
each edge by a binary BGP query; node and edge definitions are completely
independent, which is what lets an AnS describe heterogeneous RDF data.

This module holds the schema itself (:class:`AnalyticalSchema`,
:class:`AnalysisClass`, :class:`AnalysisProperty`) plus the structural
checks the analytics layer needs:

* well-formedness of the schema (unique names, edges referencing declared
  nodes, node queries unary, edge queries binary);
* the *homomorphism check* for classifier and measure queries — every
  classifier/measure must be homomorphic to the AnS, i.e. use only AnS
  classes in ``rdf:type`` atoms and AnS properties in the other atoms, in a
  way consistent with the property endpoints.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

from repro.errors import HomomorphismError, SchemaDefinitionError
from repro.rdf.namespaces import ANS, RDF, Namespace
from repro.rdf.terms import IRI, Variable
from repro.rdf.triples import TriplePattern
from repro.bgp.query import BGPQuery

__all__ = ["AnalysisClass", "AnalysisProperty", "AnalyticalSchema"]

_RDF_TYPE = RDF.term("type")


def _as_iri(value: Union[str, IRI], namespace: Namespace) -> IRI:
    if isinstance(value, IRI):
        return value
    return namespace.term(value)


class AnalysisClass:
    """A node of the analytical schema: an analysis class.

    Attributes
    ----------
    iri:
        The IRI naming the class in the AnS instance (objects of ``rdf:type``).
    query:
        The unary BGP query defining the class extent over the base graph.
    label:
        Short human-readable name (defaults to the IRI local name).
    """

    def __init__(self, iri: IRI, query: BGPQuery, label: Optional[str] = None):
        if query.arity() != 1:
            raise SchemaDefinitionError(
                f"the query defining analysis class {iri.n3()} must be unary, "
                f"got arity {query.arity()}"
            )
        self.iri = iri
        self.query = query
        self.label = label or iri.local_name()

    def __repr__(self) -> str:  # pragma: no cover
        return f"AnalysisClass({self.label})"


class AnalysisProperty:
    """An edge of the analytical schema: an analysis property.

    Attributes
    ----------
    iri:
        The IRI naming the property in the AnS instance.
    source, target:
        IRIs of the AnS classes this property goes from / to.
    query:
        The binary BGP query returning the (subject, object) pairs of the
        property over the base graph.
    """

    def __init__(
        self,
        iri: IRI,
        source: IRI,
        target: IRI,
        query: BGPQuery,
        label: Optional[str] = None,
    ):
        if query.arity() != 2:
            raise SchemaDefinitionError(
                f"the query defining analysis property {iri.n3()} must be binary, "
                f"got arity {query.arity()}"
            )
        self.iri = iri
        self.source = source
        self.target = target
        self.query = query
        self.label = label or iri.local_name()

    def __repr__(self) -> str:  # pragma: no cover
        return f"AnalysisProperty({self.label}: {self.source.local_name()} -> {self.target.local_name()})"


class AnalyticalSchema:
    """An analytical schema: named analysis classes and properties.

    The schema behaves like a small catalog: classes and properties are
    registered with :meth:`add_class` / :meth:`add_property` (either with
    explicit defining queries, or with the identity-style defaults provided
    by :meth:`add_class_from_type` / :meth:`add_property_from_predicate`
    which are convenient when the base data is already shaped like the
    analysis view).
    """

    def __init__(self, name: str = "AnS", namespace: Namespace = ANS):
        self.name = name
        self.namespace = namespace
        self._classes: Dict[IRI, AnalysisClass] = {}
        self._properties: Dict[IRI, AnalysisProperty] = {}

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------

    def add_class(self, iri: Union[str, IRI], query: BGPQuery, label: Optional[str] = None) -> AnalysisClass:
        """Register an analysis class defined by a unary query."""
        class_iri = _as_iri(iri, self.namespace)
        if class_iri in self._classes:
            raise SchemaDefinitionError(f"analysis class {class_iri.n3()} is already defined")
        node = AnalysisClass(class_iri, query, label)
        self._classes[class_iri] = node
        return node

    def add_class_from_type(
        self,
        iri: Union[str, IRI],
        base_class: Union[str, IRI, None] = None,
        base_namespace: Optional[Namespace] = None,
        label: Optional[str] = None,
    ) -> AnalysisClass:
        """Register a class whose extent is ``?x rdf:type <base_class>`` in the base data.

        When ``base_class`` is omitted the AnS class IRI itself is used,
        which is the common case where the analysis view mirrors the data.
        """
        class_iri = _as_iri(iri, self.namespace)
        source_class = _as_iri(base_class, base_namespace or self.namespace) if base_class else class_iri
        variable = Variable("x")
        query = BGPQuery([variable], [TriplePattern(variable, _RDF_TYPE, source_class)], name=f"def_{class_iri.local_name()}")
        return self.add_class(class_iri, query, label)

    def add_property(
        self,
        iri: Union[str, IRI],
        source: Union[str, IRI],
        target: Union[str, IRI],
        query: BGPQuery,
        label: Optional[str] = None,
    ) -> AnalysisProperty:
        """Register an analysis property defined by a binary query."""
        property_iri = _as_iri(iri, self.namespace)
        if property_iri in self._properties:
            raise SchemaDefinitionError(f"analysis property {property_iri.n3()} is already defined")
        source_iri = _as_iri(source, self.namespace)
        target_iri = _as_iri(target, self.namespace)
        if source_iri not in self._classes:
            raise SchemaDefinitionError(
                f"property {property_iri.n3()} references undeclared source class {source_iri.n3()}"
            )
        if target_iri not in self._classes:
            raise SchemaDefinitionError(
                f"property {property_iri.n3()} references undeclared target class {target_iri.n3()}"
            )
        edge = AnalysisProperty(property_iri, source_iri, target_iri, query, label)
        self._properties[property_iri] = edge
        return edge

    def add_property_from_predicate(
        self,
        iri: Union[str, IRI],
        source: Union[str, IRI],
        target: Union[str, IRI],
        base_predicate: Union[str, IRI, None] = None,
        base_namespace: Optional[Namespace] = None,
        label: Optional[str] = None,
    ) -> AnalysisProperty:
        """Register a property whose pairs are ``?s <base_predicate> ?o`` in the base data."""
        property_iri = _as_iri(iri, self.namespace)
        predicate = _as_iri(base_predicate, base_namespace or self.namespace) if base_predicate else property_iri
        subject = Variable("s")
        object_ = Variable("o")
        query = BGPQuery(
            [subject, object_],
            [TriplePattern(subject, predicate, object_)],
            name=f"def_{property_iri.local_name()}",
        )
        return self.add_property(property_iri, source, target, query, label)

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------

    @property
    def classes(self) -> Tuple[AnalysisClass, ...]:
        return tuple(self._classes.values())

    @property
    def properties(self) -> Tuple[AnalysisProperty, ...]:
        return tuple(self._properties.values())

    def analysis_class(self, iri: Union[str, IRI]) -> AnalysisClass:
        class_iri = _as_iri(iri, self.namespace)
        if class_iri not in self._classes:
            raise SchemaDefinitionError(f"unknown analysis class {class_iri.n3()}")
        return self._classes[class_iri]

    def analysis_property(self, iri: Union[str, IRI]) -> AnalysisProperty:
        property_iri = _as_iri(iri, self.namespace)
        if property_iri not in self._properties:
            raise SchemaDefinitionError(f"unknown analysis property {property_iri.n3()}")
        return self._properties[property_iri]

    # ------------------------------------------------------------------
    # homomorphism check (queries against the AnS)
    # ------------------------------------------------------------------

    def check_homomorphic(self, query: BGPQuery) -> None:
        """Raise :class:`HomomorphismError` unless ``query`` is homomorphic to this AnS.

        The check implements the natural notion for queries over an AnS
        instance: every ``rdf:type`` atom must reference a declared analysis
        class, every other atom must use a declared analysis property as a
        constant predicate, and the class constraints induced on a variable
        by the atoms it occurs in must be mutually consistent (a variable
        cannot be forced to be both a ``City`` and a ``Site``, say, unless
        those are the same class).
        """
        induced: Dict[Variable, set] = {}

        def constrain(term, class_iri: IRI) -> None:
            if isinstance(term, Variable):
                induced.setdefault(term, set()).add(class_iri)

        for pattern in query.body:
            predicate = pattern.predicate
            if isinstance(predicate, Variable):
                raise HomomorphismError(
                    f"query {query.name!r} uses a variable predicate {predicate.n3()}; "
                    "analytical queries must use AnS properties"
                )
            if predicate == _RDF_TYPE:
                if isinstance(pattern.object, Variable):
                    raise HomomorphismError(
                        f"query {query.name!r} has an rdf:type atom with a variable class"
                    )
                if not isinstance(pattern.object, IRI) or pattern.object not in self._classes:
                    raise HomomorphismError(
                        f"query {query.name!r} references {pattern.object.n3()} which is not an "
                        f"analysis class of schema {self.name!r}"
                    )
                constrain(pattern.subject, pattern.object)
                continue
            if predicate not in self._properties:
                raise HomomorphismError(
                    f"query {query.name!r} uses predicate {predicate.n3()} which is not an "
                    f"analysis property of schema {self.name!r}"
                )
            edge = self._properties[predicate]
            constrain(pattern.subject, edge.source)
            constrain(pattern.object, edge.target)

        for variable, classes in induced.items():
            if len(classes) > 1:
                names = sorted(iri.local_name() for iri in classes)
                raise HomomorphismError(
                    f"variable ?{variable.name} of query {query.name!r} is constrained to belong "
                    f"to multiple analysis classes {names}; the query is not homomorphic to the AnS"
                )

    # ------------------------------------------------------------------
    # presentation
    # ------------------------------------------------------------------

    def describe(self) -> str:
        """Multi-line human-readable description of the schema."""
        lines = [f"Analytical schema {self.name!r}"]
        lines.append(f"  classes ({len(self._classes)}):")
        for node in self._classes.values():
            lines.append(f"    {node.label}: {node.query.to_text()}")
        lines.append(f"  properties ({len(self._properties)}):")
        for edge in self._properties.values():
            lines.append(
                f"    {edge.label} ({edge.source.local_name()} -> {edge.target.local_name()}): "
                f"{edge.query.to_text()}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"AnalyticalSchema({self.name!r}, {len(self._classes)} classes, "
            f"{len(self._properties)} properties)"
        )
