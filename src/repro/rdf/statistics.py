"""Graph statistics used for cardinality estimation.

The BGP evaluator orders joins greedily by estimated output cardinality.
These estimates come from :class:`GraphStatistics`, which summarizes a graph
with the classical lightweight statistics of RDF engines:

* total triple count;
* per-predicate triple counts;
* per-predicate distinct subject / object counts;
* counts of ``rdf:type`` instances per class.

The counts are an index, not a scan: every graph keeps them itself (heap
graphs beside their SPO/POS indexes, updated by each effective
mutation; mapped snapshots in their header) and
:meth:`~repro.rdf.graph.Graph.statistics_summary` hands them over in
O(#predicates + #classes).  A :class:`GraphStatistics` is therefore a cheap
view: it is stamped with the graph's change counter
(:attr:`~repro.rdf.graph.Graph.version`) and re-reads the summary on the
next estimate after a mutation — exactly like the result caches — so a
cardinality estimate can never be served against a graph that has since
changed, and a write costs the statistics nothing proportional to the
instance.
"""

from __future__ import annotations

from typing import Dict

from repro.rdf.graph import Graph
from repro.rdf.namespaces import RDF
from repro.rdf.terms import Term, Variable
from repro.rdf.triples import TriplePattern

__all__ = ["GraphStatistics"]

_TYPE = RDF.term("type")


class GraphStatistics:
    """Summary statistics of a :class:`~repro.rdf.graph.Graph`."""

    def __init__(self, graph: Graph):
        self._graph = graph
        self.refresh()

    def _sync(self) -> None:
        """Re-read the summary when the graph has mutated since.

        Every estimation entry point calls this first: an int compare of the
        version stamp against the graph's change counter, a :meth:`refresh`
        on mismatch — so planner cost estimates stay honest across
        interleaved reads and writes without anyone refreshing manually.
        """
        if self._graph.version != self._version:
            self.refresh()

    def refresh(self) -> None:
        """Re-read all statistics from the graph's own summary.

        One path for every graph type, O(#predicates + #classes): no
        instance scan, and only the predicate and class terms are decoded.
        """
        self._version: int = self._graph.version
        summary = self._graph.statistics_summary()
        self.triple_count: int = summary["triple_count"]
        self.predicate_counts: Dict[Term, int] = summary["predicate_counts"]
        self.predicate_distinct_subjects: Dict[Term, int] = summary[
            "predicate_distinct_subjects"
        ]
        self.predicate_distinct_objects: Dict[Term, int] = summary[
            "predicate_distinct_objects"
        ]
        self.class_counts: Dict[Term, int] = summary["class_counts"]

    # ------------------------------------------------------------------
    # estimation
    # ------------------------------------------------------------------

    def estimate_pattern(self, pattern: TriplePattern) -> float:
        """Estimate the number of triples matching ``pattern``.

        Uses exact counts when the pattern's constants allow an index-backed
        count (the common case for classifier/measure triples); otherwise
        applies independence assumptions over per-predicate statistics.
        """
        self._sync()
        subject, predicate, object_ = pattern.as_tuple()
        subject_is_var = isinstance(subject, Variable)
        predicate_is_var = isinstance(predicate, Variable)
        object_is_var = isinstance(object_, Variable)

        if not predicate_is_var:
            total = self.predicate_counts.get(predicate, 0)
            if total == 0:
                return 0.0
            if subject_is_var and object_is_var:
                return float(total)
            if not subject_is_var and not object_is_var:
                return self._exact_count(pattern)
            if not object_is_var:
                # (?, p, o): on average total / distinct objects.
                distinct = max(self.predicate_distinct_objects.get(predicate, 1), 1)
                if predicate == _TYPE and object_ in self.class_counts:
                    return float(self.class_counts[object_])
                return max(total / distinct, 1.0)
            # (s, p, ?): on average total / distinct subjects.
            distinct = max(self.predicate_distinct_subjects.get(predicate, 1), 1)
            return max(total / distinct, 1.0)

        # Variable predicate: rare in analytical queries.  Fall back to a
        # fraction of the graph proportional to how many positions are bound.
        bound_positions = sum(1 for is_var in (subject_is_var, object_is_var) if not is_var)
        if bound_positions == 0:
            return float(self.triple_count)
        return self._exact_count(pattern)

    def estimate_bgp_cardinality(self, query) -> float:
        """Estimate the answer cardinality of a BGP query.

        Classical lightweight model: start from the most selective pattern
        and treat each further pattern as a filter whose selectivity is its
        own match fraction of the graph (independence assumption).  Rooted
        star-shaped classifier/measure queries — the shape every analytical
        query in this repo uses — are joined on a shared variable, so each
        extra pattern can only keep or shrink the running cardinality, which
        this model reflects.
        """
        self._sync()
        estimates = sorted(self.estimate_pattern(pattern) for pattern in query.body)
        if not estimates:
            return 0.0
        if estimates[0] == 0.0:
            return 0.0
        cardinality = estimates[0]
        total = max(float(self.triple_count), 1.0)
        for estimate in estimates[1:]:
            cardinality *= min(estimate / total, 1.0)
        return max(cardinality, 1.0)

    def estimate_evaluation_cost(self, query) -> float:
        """Estimate the work (rows touched) of evaluating a BGP query.

        The evaluator scans each pattern's index entries and builds join
        results, so the cost is modelled as the sum of per-pattern match
        estimates plus the estimated output cardinality.  The unit is
        "rows", directly comparable with the reuse costs of
        :mod:`repro.olap.planner` (which count rows of materialized inputs).
        """
        self._sync()
        scan_cost = sum(self.estimate_pattern(pattern) for pattern in query.body)
        return scan_cost + self.estimate_bgp_cardinality(query)

    def _exact_count(self, pattern: TriplePattern) -> float:
        graph = self._graph
        ids = []
        for term in pattern.as_tuple():
            if isinstance(term, Variable):
                ids.append(None)
            else:
                term_id = graph.encode_term(term)
                ids.append(-1 if term_id is None else term_id)
        return float(graph.count_ids(ids[0], ids[1], ids[2]))

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"GraphStatistics({self.triple_count} triples, "
            f"{len(self.predicate_counts)} predicates, {len(self.class_counts)} classes)"
        )
