"""RDFS reasoning by saturation.

Analytical-schema instances are "semantic-rich" RDF graphs: their answers
must account for implicit triples entailed by RDF Schema statements.  The
standard way to make BGP query answering complete in this setting — the one
used by the RDF analytics framework the paper builds on — is *saturation*:
materialize the entailed triples once, then evaluate queries on the closed
graph.

This module implements the four RDFS entailment rules that matter for BGP
answering over instance data (the ρdf fragment):

=========  ======================================================
rule       entailment
=========  ======================================================
rdfs2      ``p rdfs:domain c`` and ``s p o``      ⟹  ``s rdf:type c``
rdfs3      ``p rdfs:range c`` and ``s p o``       ⟹  ``o rdf:type c``
rdfs5      transitivity of ``rdfs:subPropertyOf``
rdfs7      ``p rdfs:subPropertyOf q`` and ``s p o`` ⟹  ``s q o``
rdfs9      ``c rdfs:subClassOf d`` and ``s rdf:type c`` ⟹ ``s rdf:type d``
rdfs11     transitivity of ``rdfs:subClassOf``
=========  ======================================================

Saturation runs to a fixpoint; the input graph is not modified unless
``in_place=True``.  :class:`RDFSClosure` keeps a saturated copy of a graph
that changes: it follows the source's change log by support counts instead
of re-running the fixpoint.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, List, Optional, Set

from repro.rdf.graph import Graph
from repro.rdf.namespaces import RDF, RDFS
from repro.rdf.terms import IRI, Literal, Term
from repro.rdf.triples import Triple

__all__ = ["RDFSClosure", "RDFSRules", "saturate", "schema_triples", "is_schema_triple"]

_TYPE = RDF.term("type")
_SUBCLASS = RDFS.term("subClassOf")
_SUBPROPERTY = RDFS.term("subPropertyOf")
_DOMAIN = RDFS.term("domain")
_RANGE = RDFS.term("range")

_SCHEMA_PREDICATES = {_SUBCLASS, _SUBPROPERTY, _DOMAIN, _RANGE}


def is_schema_triple(triple: Triple) -> bool:
    """True when the triple is an RDFS schema statement (not instance data)."""
    return triple.predicate in _SCHEMA_PREDICATES


def schema_triples(graph: Graph) -> Iterable[Triple]:
    """Iterate over the RDFS schema statements of ``graph``."""
    for predicate in _SCHEMA_PREDICATES:
        yield from graph.triples(None, predicate, None)


def _transitive_closure(edges: Dict[Term, Set[Term]]) -> Dict[Term, Set[Term]]:
    """Return the transitive closure of a successor map (iterative DFS)."""
    closure: Dict[Term, Set[Term]] = {}
    for start in edges:
        reached: Set[Term] = set()
        stack = list(edges.get(start, ()))
        while stack:
            node = stack.pop()
            if node in reached:
                continue
            reached.add(node)
            stack.extend(edges.get(node, ()))
        closure[start] = reached
    return closure


class RDFSRules:
    """Pre-compiled view of a graph's RDFS schema, used to saturate data.

    The schema (subclass / subproperty hierarchies, domain and range
    constraints) is extracted and transitively closed once; then
    :meth:`entail` produces all triples entailed for a given data triple.
    """

    def __init__(self, graph: Graph):
        subclass: Dict[Term, Set[Term]] = {}
        subproperty: Dict[Term, Set[Term]] = {}
        self._domains: Dict[Term, Set[Term]] = {}
        self._ranges: Dict[Term, Set[Term]] = {}

        for triple in graph.triples(None, _SUBCLASS, None):
            subclass.setdefault(triple.subject, set()).add(triple.object)
        for triple in graph.triples(None, _SUBPROPERTY, None):
            subproperty.setdefault(triple.subject, set()).add(triple.object)
        for triple in graph.triples(None, _DOMAIN, None):
            self._domains.setdefault(triple.subject, set()).add(triple.object)
        for triple in graph.triples(None, _RANGE, None):
            self._ranges.setdefault(triple.subject, set()).add(triple.object)

        self._subclass_closure = _transitive_closure(subclass)
        self._subproperty_closure = _transitive_closure(subproperty)

    # -- schema introspection ----------------------------------------------

    def superclasses(self, klass: Term) -> Set[Term]:
        """All (transitive) superclasses of ``klass``, excluding itself."""
        return set(self._subclass_closure.get(klass, ()))

    def superproperties(self, prop: Term) -> Set[Term]:
        """All (transitive) superproperties of ``prop``, excluding itself."""
        return set(self._subproperty_closure.get(prop, ()))

    def domains(self, prop: Term) -> Set[Term]:
        return set(self._domains.get(prop, ()))

    def ranges(self, prop: Term) -> Set[Term]:
        return set(self._ranges.get(prop, ()))

    # -- entailment ---------------------------------------------------------

    def entail(self, triple: Triple) -> Set[Triple]:
        """Return the set of triples directly entailed by ``triple``.

        The returned set does not include ``triple`` itself.  Entailments
        may themselves entail more triples; :func:`saturate` iterates to a
        fixpoint.
        """
        entailed: Set[Triple] = set()
        subject, predicate, object_ = triple.as_tuple()

        # rdfs7: subproperty propagation.
        for super_property in self._subproperty_closure.get(predicate, ()):
            if isinstance(super_property, IRI):
                entailed.add(Triple(subject, super_property, object_))

        # rdfs2 / rdfs3: domain and range typing (also via superproperties,
        # because the closure below is driven off the original predicate only).
        properties = {predicate} | self._subproperty_closure.get(predicate, set())
        for prop in properties:
            for domain_class in self._domains.get(prop, ()):
                entailed.add(Triple(subject, _TYPE, domain_class))  # type: ignore[arg-type]
            if not isinstance(object_, Literal):
                for range_class in self._ranges.get(prop, ()):
                    entailed.add(Triple(object_, _TYPE, range_class))  # type: ignore[arg-type]

        # rdfs9: subclass propagation of rdf:type.
        if predicate == _TYPE:
            for super_class in self._subclass_closure.get(object_, ()):
                entailed.add(Triple(subject, _TYPE, super_class))  # type: ignore[arg-type]

        entailed.discard(triple)
        return entailed

    def consequences(self, triple: Triple) -> Set[Triple]:
        """Every triple the closure of ``{triple}`` adds, ``triple`` excluded.

        The schema is closed already, so each rule fires from a single data
        premise and the closure of a graph is the union of its triples'
        closures.
        """
        derived: Set[Triple] = set()
        frontier = [triple]
        while frontier:
            for entailed in self.entail(frontier.pop()):
                if entailed not in derived:
                    derived.add(entailed)
                    frontier.append(entailed)
        derived.discard(triple)
        return derived


def saturate(graph: Graph, in_place: bool = False) -> Graph:
    """Return the RDFS saturation (closure) of ``graph``.

    The fixpoint computation is a simple semi-naive loop: only triples added
    in the previous round are considered for further entailment.
    """
    target = graph if in_place else graph.copy()
    rules = RDFSRules(target)

    frontier: Set[Triple] = set(target)
    while frontier:
        new_triples: Set[Triple] = set()
        for triple in frontier:
            for entailed in rules.entail(triple):
                if entailed not in target:
                    new_triples.add(entailed)
        for triple in new_triples:
            target.add(triple)
        frontier = new_triples
    return target


class RDFSClosure:
    """The saturation of ``source``, kept in step with it by support counts.

    :attr:`graph` holds ``source``'s triples plus every triple they entail
    (what :func:`saturate` of a copy would hold).  For each entailed triple
    the closure counts its *support*: the asserted triples whose own
    :meth:`~RDFSRules.consequences` contain it.  A triple is in the closure
    exactly when it is asserted or its support is above zero, so
    :meth:`sync` applies an instance-data delta one triple at a time.  A
    delta that touches the schema (or a change log that cannot say what
    changed) recounts from scratch; either way :attr:`graph` moves by its
    difference only, so its own change log carries the net entailed delta
    and results derived from it stay delta-patchable.
    """

    def __init__(self, source: Graph):
        self.source = source
        self.graph = source.copy(name=f"{source.name}+rdfs")
        self._support: Dict[Triple, int] = {}
        self._version: Optional[int] = None
        self.sync()

    def sync(self) -> None:
        """Bring :attr:`graph` up to the source's current version."""
        source = self.source
        version = source.version
        if version == self._version:
            return
        delta = None if self._version is None else source.deltas_since(self._version)
        if delta is None:
            self._recount()
        else:
            decode = source.decode_id
            added = [Triple(decode(s), decode(p), decode(o)) for s, p, o in delta.added]
            removed = [Triple(decode(s), decode(p), decode(o)) for s, p, o in delta.removed]
            if any(map(is_schema_triple, added + removed)):
                self._recount()
            else:
                self._apply(added, removed)
        self._version = version

    def _apply(self, added: List[Triple], removed: List[Triple]) -> None:
        graph, support, consequences = self.graph, self._support, self._rules.consequences
        for triple in added:
            graph.add(triple)
            for derived in consequences(triple):
                support[derived] = support.get(derived, 0) + 1
                graph.add(derived)
        unsupported = list(removed)
        for triple in removed:
            for derived in consequences(triple):
                count = support[derived] - 1
                if count:
                    support[derived] = count
                else:
                    del support[derived]
                    unsupported.append(derived)
        for triple in unsupported:
            if triple not in support and triple not in self.source:
                graph.remove(triple)

    def _recount(self) -> None:
        """Recount every support under a freshly compiled schema, then move
        :attr:`graph` by the difference (never ``clear()``: that would
        degrade its change log to the full-invalidation sentinel)."""
        self._rules = rules = RDFSRules(self.source)
        support: Dict[Triple, int] = {}
        asserted = list(self.source)
        for triple in asserted:
            for derived in rules.consequences(triple):
                support[derived] = support.get(derived, 0) + 1
        self._support = support
        graph, kept, present = self.graph, set(asserted).union(support), set(self.graph)
        for triple in present - kept:
            graph.remove(triple)
        graph.add_all(triple for triple in chain(asserted, support) if triple not in present)
