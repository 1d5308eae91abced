"""Entailment-aware query answering without saturation (query rewriting).

The alternative to materializing the RDFS closure (:func:`repro.rdf.reasoning.
saturate`) is to *reformulate* each BGP query so that evaluating it over the
raw, unsaturated graph returns exactly the answers it would have over the
saturated one.  This module implements that reformulation for the ρdf
fragment handled by :class:`repro.rdf.reasoning.RDFSRules`:

* a pattern ``(s, p, o)`` with a constant, non-schema predicate ``p`` also
  matches any triple whose predicate is a (transitive) subproperty of ``p``
  (rdfs7);
* a pattern ``(s, rdf:type, C)`` with a constant class ``C`` also matches
  instances typed with a subclass of ``C`` (rdfs9), and instances that are
  the subject (object) of a property whose effective domain (range) is ``C``
  or one of its subclasses (rdfs2/rdfs3 folded through rdfs5/rdfs9).

Each pattern therefore expands into a set of *alternatives*; the query
expands into the cartesian product of its patterns' alternatives (its
*branches*).  A head binding is an answer iff some branch produces it, and —
because the saturated graph is still a triple **set** — bag multiplicities
count distinct embeddings of the *original* variables only.  The evaluation
below therefore runs every branch with head = all original variables under
set semantics, unions and deduplicates, and only then projects to the
original head (keeping duplicates for bag semantics).

Patterns this rewriting cannot expand finitely — a variable in predicate
position, or ``rdf:type`` with a variable class — raise
:class:`~repro.errors.EvaluationError`: silently returning incomplete
answers would break the saturate ≡ rewrite contract the differential tests
enforce.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.algebra.operators import dedup, project, union_all
from repro.algebra.relation import Relation
from repro.analytics.evaluator import AnalyticalQueryEvaluator
from repro.bgp.query import BGPQuery
from repro.errors import EvaluationError
from repro.rdf.graph import Graph
from repro.rdf.namespaces import RDF
from repro.rdf.reasoning import RDFSRules, _SCHEMA_PREDICATES
from repro.rdf.statistics import GraphStatistics
from repro.rdf.terms import Term, Variable
from repro.rdf.triples import TriplePattern

__all__ = [
    "EntailmentRewritingEvaluator",
    "SchemaView",
    "expand_query",
]

_TYPE = RDF.term("type")
_FRESH_PREFIX = "__entail"

# Expanding a query multiplies pattern alternatives together; past this many
# branches the rewriting would be slower than saturating outright, and more
# likely signals a degenerate schema than a real workload.
MAX_BRANCHES = 512


class SchemaView:
    """Inverse-closure view over :class:`RDFSRules` used to expand patterns.

    ``RDFSRules`` answers "what does this triple entail" (super-directed);
    rewriting needs the opposite direction: which asserted shapes *could
    have entailed* a requested pattern.
    """

    def __init__(self, graph: Graph):
        self._rules = RDFSRules(graph)
        # Invert the closures once: subclasses(C) = {D | C ∈ superclasses(D)}.
        self._subclasses: Dict[Term, Set[Term]] = {}
        for child, supers in self._rules._subclass_closure.items():
            for super_class in supers:
                self._subclasses.setdefault(super_class, set()).add(child)
        self._subproperties: Dict[Term, Set[Term]] = {}
        for child, supers in self._rules._subproperty_closure.items():
            for super_property in supers:
                self._subproperties.setdefault(super_property, set()).add(child)
        # Effective domains/ranges of a property: its own plus those of its
        # (transitive) superproperties, then closed upward through rdfs9 —
        # mirroring how RDFSRules.entail folds rdfs2/3 through rdfs5/9.
        self._typing_properties: Dict[Term, Tuple[Set[Term], Set[Term]]] = {}
        properties = (
            set(self._rules._domains)
            | set(self._rules._ranges)
            | set(self._rules._subproperty_closure)
        )
        for prop in properties:
            reachable = {prop} | self._rules.superproperties(prop)
            domains: Set[Term] = set()
            ranges: Set[Term] = set()
            for each in reachable:
                domains |= self._rules.domains(each)
                ranges |= self._rules.ranges(each)
            classes_of = lambda seeds: set().union(
                seeds, *(self._rules.superclasses(seed) for seed in seeds)
            )
            self._typing_properties[prop] = (classes_of(domains), classes_of(ranges))

    @property
    def rules(self) -> RDFSRules:
        return self._rules

    def subclasses(self, klass: Term) -> Set[Term]:
        """All (transitive) subclasses of ``klass``, excluding itself."""
        return set(self._subclasses.get(klass, ()))

    def subproperties(self, prop: Term) -> Set[Term]:
        """All (transitive) subproperties of ``prop``, excluding itself."""
        return set(self._subproperties.get(prop, ()))

    def domain_properties(self, klass: Term) -> Set[Term]:
        """Properties whose assertion types the *subject* as ``klass``."""
        return {
            prop
            for prop, (domains, _ranges) in self._typing_properties.items()
            if klass in domains
        }

    def range_properties(self, klass: Term) -> Set[Term]:
        """Properties whose assertion types the *object* as ``klass``."""
        return {
            prop
            for prop, (_domains, ranges) in self._typing_properties.items()
            if klass in ranges
        }


class _FreshVariables:
    """Generator of fresh existential variables avoiding a taken name set."""

    def __init__(self, taken: Set[str]):
        self._taken = set(taken)
        self._counter = 0

    def next(self) -> Variable:
        while True:
            name = f"{_FRESH_PREFIX}{self._counter}"
            self._counter += 1
            if name not in self._taken:
                self._taken.add(name)
                return Variable(name)


def _pattern_alternatives(
    pattern: TriplePattern, schema: SchemaView, fresh: _FreshVariables
) -> List[TriplePattern]:
    """All asserted-pattern shapes whose matches entail ``pattern``."""
    subject, predicate, object_ = pattern.as_tuple()
    if isinstance(predicate, Variable):
        raise EvaluationError(
            "entailment rewriting cannot expand a variable-predicate pattern "
            f"({pattern!r}); use entailment='saturate' for such queries"
        )
    if predicate in _SCHEMA_PREDICATES:
        # Schema statements are answered from assertions only, exactly as in
        # saturate mode (rdfs5/11 closures are never materialized as triples).
        return [pattern]
    if predicate == _TYPE:
        if isinstance(object_, Variable):
            raise EvaluationError(
                "entailment rewriting cannot expand an rdf:type pattern with a "
                f"variable class ({pattern!r}); use entailment='saturate'"
            )
        alternatives = [pattern]
        for subclass in sorted(schema.subclasses(object_), key=str):
            alternatives.append(TriplePattern(subject, _TYPE, subclass))
        for prop in sorted(schema.domain_properties(object_), key=str):
            alternatives.append(TriplePattern(subject, prop, fresh.next()))
        for prop in sorted(schema.range_properties(object_), key=str):
            alternatives.append(TriplePattern(fresh.next(), prop, subject))
        return alternatives
    alternatives = [pattern]
    for subproperty in sorted(schema.subproperties(predicate), key=str):
        alternatives.append(TriplePattern(subject, subproperty, object_))
    return alternatives


def expand_query(query: BGPQuery, schema: SchemaView) -> List[BGPQuery]:
    """The branch queries of ``query`` under ρdf entailment rewriting.

    Every branch keeps the original head; fresh witness variables introduced
    by domain/range alternatives are existential.  The first branch is always
    the original query itself.
    """
    fresh = _FreshVariables({variable.name for variable in query.variables()})
    per_pattern = [_pattern_alternatives(pattern, schema, fresh) for pattern in query.body]
    branch_count = 1
    for alternatives in per_pattern:
        branch_count *= len(alternatives)
        if branch_count > MAX_BRANCHES:
            raise EvaluationError(
                f"entailment rewriting of {query.name!r} would produce more than "
                f"{MAX_BRANCHES} branches; use entailment='saturate' instead"
            )
    bodies: List[Tuple[TriplePattern, ...]] = [()]
    for alternatives in per_pattern:
        bodies = [body + (choice,) for body in bodies for choice in alternatives]
    return [query.with_body(body, name=f"{query.name}@ent{i}") for i, body in enumerate(bodies)]


class EntailmentRewritingEvaluator(AnalyticalQueryEvaluator):
    """Analytical evaluator answering queries *as if* the graph were saturated.

    Every BGP evaluation is replaced by the union of its entailment branches
    (see module docstring); the graph itself is never modified.  The schema
    view and per-query expansions are cached and rebuilt whenever the graph
    version moves, so schema-triple deltas change the rewriting exactly as
    they would change a re-saturation.
    """

    entailment = "rewrite"

    def __init__(
        self,
        instance: Graph,
        statistics: Optional[GraphStatistics] = None,
        engine: Optional[str] = None,
    ):
        super().__init__(instance, statistics=statistics, engine=engine)
        self._schema_version: Optional[int] = None
        self._schema_view: Optional[SchemaView] = None
        self._expansions: Dict[BGPQuery, Tuple[int, List[BGPQuery]]] = {}

    def schema_view(self) -> SchemaView:
        """The current :class:`SchemaView`, rebuilt when the graph changed."""
        version = self.instance.version
        if self._schema_view is None or self._schema_version != version:
            self._schema_view = SchemaView(self.instance)
            self._schema_version = version
            self._expansions.clear()
        return self._schema_view

    def branches(self, query: BGPQuery) -> List[BGPQuery]:
        """The (cached) entailment branches of ``query``."""
        schema = self.schema_view()
        cached = self._expansions.get(query)
        if cached is not None and cached[0] == self._schema_version:
            return cached[1]
        expanded = expand_query(query, schema)
        self._expansions[query] = (self._schema_version, expanded)
        return expanded

    def branch_count(self, query: BGPQuery) -> int:
        """How many branch evaluations answering ``query`` costs."""
        try:
            return len(self.branches(query))
        except EvaluationError:
            return 1

    def _bgp_result(self, query, semantics: str, seed=None, fact_range=None) -> Relation:
        branches = self.branches(query)
        if len(branches) == 1:
            return super()._bgp_result(query, semantics, seed=seed, fact_range=fact_range)
        # Head = all original variables: bag multiplicities over the closure
        # count embeddings of the original query's variables only, never the
        # fresh witnesses, and never one embedding twice across derivations.
        full_head = query.all_variables_head()
        results = [
            super(EntailmentRewritingEvaluator, self)._bgp_result(
                branch.with_head(full_head.head, name=branch.name),
                "set",
                seed=seed,
                fact_range=fact_range,
            )
            for branch in branches
        ]
        combined = dedup(union_all(*results))
        projected = project(combined, query.head_names)
        if semantics == "set":
            return dedup(projected)
        return projected
