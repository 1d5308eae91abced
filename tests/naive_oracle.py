"""The naive reference oracle: from-scratch evaluation sharing no code path
with the production engine.

This is the seed implementation the id-space engine replaced, kept as the
one independent reference the differential property tests compare against:

* :class:`NaiveBGPEvaluator` — dictionary-of-variables bindings with a
  fresh dict copy per candidate triple, eager per-row decoding of every
  result;
* :func:`naive_select` — σ applied to a ``dict(zip(columns, row))`` per row;
* :func:`naive_join_on` — hash join keyed on per-row value tuples;
* :func:`naive_group_aggregate` — γ over per-group value lists with literal
  conversion inside the aggregate;
* :class:`NaiveAnalyticalEvaluator` — the Definition 4 / Equation (3)
  pipeline wired from the above;
* :class:`RecountedStatistics` — :class:`GraphStatistics` whose ``refresh``
  recounts by iterating and decoding every triple (the scan the engine ran
  before graphs kept their own summary), the independent check of the
  index-maintained and header-stored counts.

It reuses only the data model (graph, relation, query and answer classes),
the aggregate functions and the pattern ordering — none of
:mod:`repro.bgp.evaluator`, :mod:`repro.algebra.operators`,
:mod:`repro.algebra.grouping`, :mod:`repro.algebra.columnar` or
:mod:`repro.analytics.evaluator`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import EvaluationError
from repro.algebra.aggregates import get_aggregate
from repro.algebra.relation import Relation
from repro.analytics.answer import CubeAnswer, KeyGenerator, PartialResult
from repro.analytics.query import KEY_COLUMN, AnalyticalQuery
from repro.rdf.graph import Graph
from repro.rdf.namespaces import RDF
from repro.rdf.statistics import GraphStatistics
from repro.rdf.terms import Variable
from repro.bgp.optimizer import order_patterns
from repro.bgp.query import BGPQuery

__all__ = [
    "NaiveBGPEvaluator",
    "NaiveAnalyticalEvaluator",
    "RecountedStatistics",
    "statistics_fields",
]

_TYPE = RDF.term("type")

#: The five public fields of a :class:`GraphStatistics`.
_STATISTICS_FIELDS = (
    "triple_count",
    "predicate_counts",
    "predicate_distinct_subjects",
    "predicate_distinct_objects",
    "class_counts",
)


def statistics_fields(statistics: GraphStatistics) -> Dict[str, object]:
    """The five fields of ``statistics`` by name, for whole-object comparison."""
    return {name: getattr(statistics, name) for name in _STATISTICS_FIELDS}


class RecountedStatistics(GraphStatistics):
    """Statistics recounted from a full scan of the graph on every refresh."""

    def refresh(self) -> None:
        graph = self._graph
        self._version = graph.version
        triple_count = 0
        predicate_counts: Dict[object, int] = {}
        distinct_subjects: Dict[object, set] = {}
        distinct_objects: Dict[object, set] = {}
        class_counts: Dict[object, int] = {}
        for triple in graph:
            triple_count += 1
            predicate = triple.predicate
            predicate_counts[predicate] = predicate_counts.get(predicate, 0) + 1
            distinct_subjects.setdefault(predicate, set()).add(triple.subject)
            distinct_objects.setdefault(predicate, set()).add(triple.object)
            if predicate == _TYPE:
                class_counts[triple.object] = class_counts.get(triple.object, 0) + 1
        self.triple_count = triple_count
        self.predicate_counts = predicate_counts
        self.predicate_distinct_subjects = {
            predicate: len(values) for predicate, values in distinct_subjects.items()
        }
        self.predicate_distinct_objects = {
            predicate: len(values) for predicate, values in distinct_objects.items()
        }
        self.class_counts = class_counts


class NaiveBGPEvaluator:
    """The seed BGP evaluator: dict bindings, eager term decoding."""

    def __init__(self, graph: Graph, statistics: Optional[GraphStatistics] = None):
        self._graph = graph
        self._statistics = statistics if statistics is not None else GraphStatistics(graph)

    def evaluate(self, query: BGPQuery, semantics: str = "set") -> Relation:
        if semantics not in ("set", "bag"):
            raise EvaluationError(f"unknown semantics {semantics!r}")
        bindings = self._solve(query)
        decode = self._graph.decode_id
        rows: List[Tuple] = []
        for binding in bindings:
            rows.append(tuple(decode(binding[variable]) for variable in query.head))
        relation = Relation(query.head_names, rows)
        if semantics == "set":
            seen = set()
            kept = []
            for row in relation:
                if row not in seen:
                    seen.add(row)
                    kept.append(row)
            return Relation(relation.columns, kept)
        return relation

    def _solve(self, query: BGPQuery) -> List[Dict[Variable, int]]:
        ordered = order_patterns(query.body, self._statistics, bound_variables=set())
        bindings: List[Dict[Variable, int]] = [{}]
        for pattern in ordered:
            if not bindings:
                return []
            bindings = self._extend(bindings, pattern)
        return bindings

    def _extend(self, bindings, pattern):
        graph = self._graph
        positions = pattern.as_tuple()
        constant_ids: List[Optional[int]] = []
        for term in positions:
            if isinstance(term, Variable):
                constant_ids.append(None)
            else:
                term_id = graph.encode_term(term)
                if term_id is None:
                    return []
                constant_ids.append(term_id)
        variable_positions = [
            (index, term) for index, term in enumerate(positions) if isinstance(term, Variable)
        ]
        extended = []
        for binding in bindings:
            lookup = list(constant_ids)
            for index, variable in variable_positions:
                bound = binding.get(variable)
                if bound is not None:
                    lookup[index] = bound
            for triple_ids in graph.match_ids(lookup[0], lookup[1], lookup[2]):
                new_binding = dict(binding)
                consistent = True
                for index, variable in variable_positions:
                    value = triple_ids[index]
                    existing = new_binding.get(variable)
                    if existing is None:
                        new_binding[variable] = value
                    elif existing != value:
                        consistent = False
                        break
                if consistent:
                    extended.append(new_binding)
        return extended


def naive_select(relation: Relation, predicate) -> Relation:
    """The seed σ: one ``dict(zip(columns, row))`` per row."""
    columns = relation.columns
    kept = [row for row in relation if predicate(dict(zip(columns, row)))]
    return Relation(columns, kept)


def naive_join_on(left: Relation, right: Relation, join_pairs) -> Relation:
    """The seed equi-join: value-tuple hash keys, no adoption fast path."""
    left_key_indexes = tuple(left.column_index(l) for l, _ in join_pairs)
    right_key_indexes = tuple(right.column_index(r) for _, r in join_pairs)
    dropped = {r for l, r in join_pairs if l == r}
    kept_positions = [i for i, name in enumerate(right.columns) if name not in dropped]
    kept_names = [right.columns[i] for i in kept_positions]
    output_columns = tuple(left.columns) + tuple(kept_names)
    table: Dict[Tuple, List[Tuple]] = {}
    for row in right:
        key = tuple(row[i] for i in right_key_indexes)
        table.setdefault(key, []).append(row)
    rows = []
    for left_row in left:
        key = tuple(left_row[i] for i in left_key_indexes)
        for right_row in table.get(key, ()):
            rows.append(left_row + tuple(right_row[i] for i in kept_positions))
    return Relation(output_columns, rows)


def naive_group_aggregate(relation: Relation, by, measure, function, output_column) -> Relation:
    """The seed γ: tuple keys per row, value lists through the aggregate."""
    aggregate = get_aggregate(function)
    key_indexes = relation.column_indexes(by)
    measure_index = relation.column_index(measure)
    groups: Dict[Tuple, List] = {}
    for row in relation:
        groups.setdefault(tuple(row[i] for i in key_indexes), []).append(row)
    rows = []
    for key, group in groups.items():
        values = [row[measure_index] for row in group if row[measure_index] is not None]
        if not values:
            continue
        rows.append(key + (aggregate(values),))
    return Relation(tuple(by) + (output_column,), rows)


class NaiveAnalyticalEvaluator:
    """The seed from-scratch AnQ pipeline (Definition 4 + Equation (3))."""

    def __init__(self, instance: Graph, statistics: Optional[GraphStatistics] = None):
        self._bgp = NaiveBGPEvaluator(instance, statistics)

    def partial_result(
        self, query: AnalyticalQuery, key_generator: Optional[KeyGenerator] = None
    ) -> PartialResult:
        fact = query.fact_variable.name
        classifier = self._bgp.evaluate(query.classifier, semantics="set")
        if not query.sigma.is_unrestricted():
            classifier = naive_select(classifier, query.sigma.allows_row)
        keys = key_generator or KeyGenerator()
        measure = self._bgp.evaluate(query.measure, semantics="bag")
        measure_column = query.measure_variable.name
        keyed = Relation(
            (KEY_COLUMN,) + measure.columns, [(keys(),) + row for row in measure]
        ).reorder((fact, KEY_COLUMN, measure_column))
        joined = naive_join_on(classifier, keyed, [(fact, fact)])
        dimension_columns = query.dimension_names
        expected = (fact, *dimension_columns, KEY_COLUMN, measure_column)
        if tuple(joined.columns) != expected:
            joined = joined.reorder(expected)
        return PartialResult(
            joined,
            fact_column=fact,
            dimension_columns=dimension_columns,
            key_column=KEY_COLUMN,
            measure_column=measure_column,
        )

    def answer(self, query: AnalyticalQuery) -> CubeAnswer:
        partial = self.partial_result(query)
        measure_column = partial.measure_column
        dimension_columns = partial.dimension_columns
        indexes = partial.relation.column_indexes(
            (partial.fact_column, *dimension_columns, measure_column)
        )
        projected = Relation(
            (partial.fact_column, *dimension_columns, measure_column),
            [tuple(row[i] for i in indexes) for row in partial.relation],
        )
        aggregated = naive_group_aggregate(
            projected,
            by=dimension_columns,
            measure=measure_column,
            function=query.aggregate,
            output_column=measure_column,
        )
        return CubeAnswer(aggregated, dimension_columns, measure_column)
