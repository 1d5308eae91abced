"""Persistence of materialized query results (``ans(Q)`` and ``pres(Q)``).

The whole point of the paper's approach is to *reuse* materialized results;
in a real deployment those results outlive the process that computed them.
This module stores relations, cube answers, partial results and whole
:class:`~repro.analytics.answer.MaterializedQueryResults` bundles on disk and
loads them back, so an :class:`~repro.olap.session.OLAPSession` can be
re-hydrated without touching the AnS instance.

Format
------
A *result directory* contains:

* ``manifest.json`` — the query name, column roles (fact / dimensions / key /
  measure) and aggregate name;
* ``answer.tsv`` and ``partial.tsv`` — ``ans(Q)`` and ``pres(Q)``, one
  relation each, tab-separated, one header line with the column names, one
  line per row.  Both are required: a directory lacking either is rejected.

Cell encoding: RDF terms are written in their N-Triples form (``<iri>``,
``"literal"^^<datatype>``, ``_:label``); Python ints/floats/bools are written
as JSON scalars; ``None`` as an empty field.  This keeps files human-readable
and diff-able while round-tripping exactly.

The AnS **instance** itself persists through the binary columnar snapshot
format of :mod:`repro.storage` (:func:`~repro.storage.save_snapshot` /
:func:`~repro.storage.load_snapshot`), so a session can be fully
re-hydrated — instance by mmap, materialized results from a result
directory — without re-parsing any source syntax.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

from repro.errors import MaterializationError, ParseError
from repro.algebra.relation import Relation
from repro.analytics.answer import CubeAnswer, MaterializedQueryResults, PartialResult
from repro.rdf.ntriples import _parse_term  # reuse the strict N-Triples term grammar
from repro.rdf.terms import Term

__all__ = [
    "save_relation",
    "load_relation",
    "save_materialized_results",
    "load_materialized_results",
    "save_cache_entry",
    "load_cache_entry",
]

_MANIFEST_NAME = "manifest.json"
_ANSWER_NAME = "answer.tsv"
_PARTIAL_NAME = "partial.tsv"


# ---------------------------------------------------------------------------
# cell encoding
# ---------------------------------------------------------------------------


def _encode_cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, Term):
        return value.n3()
    if isinstance(value, bool):
        return "json:true" if value else "json:false"
    if isinstance(value, (int, float)):
        return f"json:{json.dumps(value)}"
    if isinstance(value, str):
        return "str:" + value
    raise MaterializationError(
        f"cannot persist value {value!r} of type {type(value).__name__}"
    )


def _decode_cell(text: str) -> object:
    if text == "":
        return None
    if text.startswith("json:"):
        return json.loads(text[len("json:") :])
    if text.startswith("str:"):
        return text[len("str:") :]
    term, _ = _parse_term(text, 0, 0)
    return term


# ---------------------------------------------------------------------------
# relations
# ---------------------------------------------------------------------------


def save_relation(relation: Relation, path: str) -> None:
    """Write a relation to a TSV file (header line + one line per row)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\t".join(relation.columns) + "\n")
        for row in relation.to_rows("persist:tsv"):
            handle.write("\t".join(_encode_cell(value) for value in row) + "\n")


def load_relation(path: str) -> Relation:
    """Read a relation previously written by :func:`save_relation`."""
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n")
        if not header:
            raise MaterializationError(f"{path} is empty; expected a TSV header line")
        columns = header.split("\t")
        rows: List[tuple] = []
        for line_number, line in enumerate(handle, start=2):
            line = line.rstrip("\n")
            if not line and line_number == 2 and not rows:
                continue
            cells = line.split("\t")
            if len(cells) != len(columns):
                raise MaterializationError(
                    f"{path}:{line_number}: expected {len(columns)} cells, found {len(cells)}"
                )
            try:
                rows.append(tuple(_decode_cell(cell) for cell in cells))
            except ParseError as exc:
                raise MaterializationError(f"{path}:{line_number}: {exc}") from exc
    return Relation(columns, rows)


# ---------------------------------------------------------------------------
# materialized query results
# ---------------------------------------------------------------------------


def save_materialized_results(
    materialized: MaterializedQueryResults,
    directory: str,
    extra_manifest: Optional[Dict[str, object]] = None,
) -> None:
    """Persist a query's materialized results into ``directory`` (created if needed).

    ``extra_manifest`` entries are merged into ``manifest.json`` — the result
    cache uses this to stamp entries with their canonical query key and the
    size of the instance they were computed against.
    """
    os.makedirs(directory, exist_ok=True)
    query = materialized.query
    manifest: Dict[str, object] = {
        "query_name": query.name,
        "aggregate": query.aggregate.name,
        "fact_column": query.fact_variable.name,
        "dimension_columns": list(query.dimension_names),
        "measure_column": query.measure_variable.name,
        "partial_key_column": materialized.partial.key_column,
        "partial_dimension_columns": list(materialized.partial.dimension_columns),
    }
    save_relation(materialized.answer.relation, os.path.join(directory, _ANSWER_NAME))
    save_relation(materialized.partial.relation, os.path.join(directory, _PARTIAL_NAME))
    if extra_manifest:
        manifest.update(extra_manifest)
    with open(os.path.join(directory, _MANIFEST_NAME), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _holds_both_relations(directory: str) -> bool:
    """True when ``directory`` has ``answer.tsv`` and ``partial.tsv``: stored
    results are complete, and anything else is malformed outside input."""
    return all(
        os.path.exists(os.path.join(directory, name)) for name in (_ANSWER_NAME, _PARTIAL_NAME)
    )


def load_materialized_results(directory: str, query, check_name: bool = True) -> MaterializedQueryResults:
    """Load materialized results saved by :func:`save_materialized_results`.

    ``query`` is the :class:`~repro.analytics.query.AnalyticalQuery` the
    results belong to; the manifest is checked against it (name, aggregate
    and column roles) so stale directories are rejected rather than silently
    producing wrong cubes.  ``check_name=False`` skips the display-name
    check — used by the result cache, whose canonical keys already prove
    semantic equality while session-assigned names may differ.  A directory
    lacking ``answer.tsv`` or ``partial.tsv`` is rejected.
    """
    manifest_path = os.path.join(directory, _MANIFEST_NAME)
    if not os.path.exists(manifest_path):
        raise MaterializationError(f"no manifest found in {directory!r}")
    if not _holds_both_relations(directory):
        raise MaterializationError(
            f"result directory {directory!r} lacks {_ANSWER_NAME} or {_PARTIAL_NAME}; "
            f"materialized results are stored complete (ans(Q) and pres(Q))"
        )
    with open(manifest_path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)

    expected = {
        "aggregate": query.aggregate.name,
        "fact_column": query.fact_variable.name,
        "dimension_columns": list(query.dimension_names),
        "measure_column": query.measure_variable.name,
    }
    if check_name:
        expected["query_name"] = query.name
    for key, value in expected.items():
        if manifest.get(key) != value:
            raise MaterializationError(
                f"materialized results in {directory!r} were saved for "
                f"{key}={manifest.get(key)!r}, but the query has {key}={value!r}"
            )

    answer = CubeAnswer(
        load_relation(os.path.join(directory, _ANSWER_NAME)),
        tuple(manifest["dimension_columns"]),
        manifest["measure_column"],
    )
    partial = PartialResult(
        load_relation(os.path.join(directory, _PARTIAL_NAME)),
        fact_column=manifest["fact_column"],
        dimension_columns=tuple(manifest["partial_dimension_columns"]),
        key_column=manifest["partial_key_column"],
        measure_column=manifest["measure_column"],
    )
    return MaterializedQueryResults(query, answer, partial)


# ---------------------------------------------------------------------------
# result-cache entries (warm start across sessions)
# ---------------------------------------------------------------------------


def save_cache_entry(
    materialized: MaterializedQueryResults,
    directory: str,
    canonical_key: str,
    instance_triples: int,
    instance_fingerprint: str,
) -> None:
    """Persist one result-cache entry (see :mod:`repro.olap.cache`).

    On top of the plain materialized results the manifest records the
    canonical query key the cache indexed the entry under, the size of the
    AnS instance the results were computed against, and the instance's
    content fingerprint (:func:`repro.olap.cache.graph_fingerprint`), so a
    later session can validate the entry before trusting it.
    """
    save_materialized_results(
        materialized,
        directory,
        extra_manifest={
            "canonical_key": canonical_key,
            "instance_triples": int(instance_triples),
            "instance_fingerprint": instance_fingerprint,
        },
    )


def load_cache_entry(
    directory: str,
    query,
    canonical_key: str,
    instance_triples: int,
    instance_fingerprint: str,
) -> Optional[MaterializedQueryResults]:
    """Load a persisted cache entry, or None when absent, incomplete or stale.

    The entry must hold both relations, carry the expected canonical key and
    have been computed against an instance with the same triple count *and*
    the same content fingerprint — a graph whose mutations cancel out in
    size (one triple removed, another added) is still detected as different
    content.  A corrupt directory (unreadable manifest / relations) raises
    :class:`~repro.errors.MaterializationError` as usual.
    """
    manifest_path = os.path.join(directory, _MANIFEST_NAME)
    if not os.path.exists(manifest_path) or not _holds_both_relations(directory):
        return None
    with open(manifest_path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    if manifest.get("canonical_key") != canonical_key:
        return None
    if manifest.get("instance_triples") != int(instance_triples):
        return None
    if manifest.get("instance_fingerprint") != instance_fingerprint:
        return None
    return load_materialized_results(directory, query, check_name=False)
