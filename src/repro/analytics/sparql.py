"""Exporting analytical queries as SPARQL 1.1 SELECT queries.

The paper's related-work section notes that SPARQL 1.1 grouping/aggregation
covers a restricted form of analytical queries.  For interoperability with
existing SPARQL engines, this module renders an
:class:`~repro.analytics.query.AnalyticalQuery` as a SPARQL 1.1 query whose
answers coincide with ``ans(Q)`` whenever the query is expressible:

* the classifier becomes an inner ``SELECT DISTINCT`` sub-query (set
  semantics);
* the measure body is placed in the outer group pattern, so each of its
  embeddings contributes one binding of the measure variable (bag
  semantics), matching the paper's measure-bag construction;
* Σ restrictions become ``VALUES`` blocks (explicit value sets) or ``FILTER``
  ranges (``>``/``>=`` and ``<``/``<=`` per end, bounds rendered as RDF
  terms);
* the aggregation function maps onto a SPARQL aggregate
  (``COUNT`` / ``SUM`` / ``AVG`` / ``MIN`` / ``MAX`` /
  ``COUNT(DISTINCT ...)``).

The output is text only — this library evaluates AnQs natively; the export
exists so that the same cube can be double-checked on, or served by, a
SPARQL endpoint.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.errors import QueryDefinitionError
from repro.rdf.namespaces import PrefixMap
from repro.rdf.terms import IRI, XSD_DOUBLE, Literal, Term, Variable
from repro.analytics.query import AnalyticalQuery
from repro.analytics.sigma import DimensionRestriction

__all__ = ["to_sparql", "SPARQL_AGGREGATES"]

#: Mapping from this library's aggregate names to SPARQL aggregate syntax.
SPARQL_AGGREGATES: Dict[str, str] = {
    "count": "COUNT({value})",
    "count_distinct": "COUNT(DISTINCT {value})",
    "sum": "SUM({value})",
    "avg": "AVG({value})",
    "min": "MIN({value})",
    "max": "MAX({value})",
}


def _render_term(term, prefixes: Optional[PrefixMap]) -> str:
    if isinstance(term, Variable):
        return f"?{term.name}"
    if isinstance(term, IRI) and prefixes is not None:
        short = prefixes.shrink(term)
        if short:
            return short
    return term.n3()


def _render_patterns(patterns, prefixes: Optional[PrefixMap], indent: str) -> str:
    lines = []
    for pattern in patterns:
        subject = _render_term(pattern.subject, prefixes)
        predicate = _render_term(pattern.predicate, prefixes)
        object_ = _render_term(pattern.object, prefixes)
        lines.append(f"{indent}{subject} {predicate} {object_} .")
    return "\n".join(lines)


def _render_restriction(dimension: str, restriction: DimensionRestriction, prefixes) -> str:
    if restriction.is_full:
        return ""
    if restriction.values is not None:
        rendered = " ".join(_render_term(_as_rdf_value(value), prefixes) for value in restriction.values)
        return f"  VALUES ?{dimension} {{ {rendered} }}"
    low, low_closed, high, high_closed = restriction.bounds
    low, high = (_render_term(_as_rdf_value(bound), prefixes) for bound in (low, high))
    return (
        f"  FILTER(?{dimension} {'>=' if low_closed else '>'} {low} && "
        f"?{dimension} {'<=' if high_closed else '<'} {high})"
    )


def _as_rdf_value(value) -> Term:
    if isinstance(value, Term):
        return value
    if isinstance(value, float) and not math.isfinite(value):
        # XSD spells the special doubles INF, -INF and NaN; ``repr`` does not.
        return Literal("NaN" if math.isnan(value) else "INF" if value > 0 else "-INF", XSD_DOUBLE)
    return Literal(value)


def to_sparql(query: AnalyticalQuery, prefixes: Optional[PrefixMap] = None) -> str:
    """Render an analytical query as a SPARQL 1.1 SELECT query string.

    Raises :class:`~repro.errors.QueryDefinitionError` when the aggregation
    function has no SPARQL counterpart.
    """
    aggregate_name = query.aggregate.name
    if aggregate_name not in SPARQL_AGGREGATES:
        raise QueryDefinitionError(
            f"aggregate {aggregate_name!r} has no SPARQL 1.1 counterpart; "
            f"expressible aggregates are {sorted(SPARQL_AGGREGATES)}"
        )

    fact = query.fact_variable.name
    dimensions = list(query.dimension_names)
    measure_variable = query.measure_variable.name

    prologue_lines: List[str] = []
    if prefixes is not None:
        for prefix, namespace in sorted(prefixes, key=lambda item: item[0]):
            prologue_lines.append(f"PREFIX {prefix}: <{namespace.base}>")

    dimension_list = " ".join(f"?{name}" for name in dimensions)
    aggregate_expression = SPARQL_AGGREGATES[aggregate_name].format(value=f"?{measure_variable}")
    select_line = f"SELECT {dimension_list} ({aggregate_expression} AS ?agg)".replace("SELECT  (", "SELECT (")

    inner_select_variables = " ".join(f"?{name}" for name in [fact] + dimensions)
    classifier_block = _render_patterns(query.classifier.body, prefixes, indent="      ")
    measure_block = _render_patterns(query.measure.body, prefixes, indent="  ")

    restriction_lines = []
    for dimension in dimensions:
        rendered = _render_restriction(dimension, query.sigma[dimension], prefixes)
        if rendered:
            restriction_lines.append(rendered)

    body_lines = [
        "WHERE {",
        "  {",
        f"    SELECT DISTINCT {inner_select_variables} WHERE {{",
        classifier_block,
        "    }",
        "  }",
        measure_block,
    ]
    body_lines.extend(restriction_lines)
    body_lines.append("}")

    group_by = f"GROUP BY {dimension_list}" if dimensions else ""
    parts = prologue_lines + [select_line] + body_lines
    if group_by:
        parts.append(group_by)
    return "\n".join(part for part in parts if part != "")
