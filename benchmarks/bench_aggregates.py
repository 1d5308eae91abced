"""EXP-9 (ablation): DRILL-OUT rewriting under different aggregation functions.

Distributive aggregates (count, sum, min, max) and the non-distributive avg
all go through Algorithm 1 (which recomputes the aggregate from pres(Q), so
distributivity affects only the cheaper — and incorrect for RDF — ans(Q)
shortcut that the library refuses for avg).  Expected shape: rewriting times
are close to one another across aggregates, and all beat scratch.
"""

import pytest

from repro.analytics import AnalyticalQuery
from repro.bench.workloads import SCALES, bench_scale_from_env
from repro.datagen.blogger import BloggerConfig, blogger_dataset, words_per_blogger_query
from repro.olap import DrillOut, OLAPSession
from repro.olap.rewriting import drill_out_from_partial

AGGREGATES = ["count", "sum", "avg", "min", "max"]

_STATE = {}


def _prepared(aggregate: str):
    if not _STATE:
        parameters = SCALES[bench_scale_from_env()]
        _STATE["dataset"] = blogger_dataset(BloggerConfig(bloggers=int(parameters["bloggers"])))
        _STATE["sessions"] = {}
    dataset = _STATE["dataset"]
    if aggregate not in _STATE["sessions"]:
        base = words_per_blogger_query(dataset.schema)
        query = AnalyticalQuery(
            base.classifier, base.measure, aggregate, schema=dataset.schema, name=f"Q_{aggregate}"
        )
        session = OLAPSession(dataset.instance, dataset.schema)
        session.execute(query)
        _STATE["sessions"][aggregate] = (session, query)
    return _STATE["sessions"][aggregate]


@pytest.mark.parametrize("aggregate", AGGREGATES)
def test_drill_out_rewrite_by_aggregate(benchmark, aggregate):
    session, query = _prepared(aggregate)
    operation = DrillOut("dage")
    transformed = operation.apply(query)
    partial = session.materialized(query).partial
    benchmark.extra_info["aggregate"] = aggregate
    result = benchmark(lambda: drill_out_from_partial(partial, query, transformed))
    assert len(result) > 0


@pytest.mark.parametrize("aggregate", AGGREGATES)
def test_drill_out_scratch_by_aggregate(benchmark, aggregate):
    session, query = _prepared(aggregate)
    operation = DrillOut("dage")
    transformed = operation.apply(query)
    benchmark.extra_info["aggregate"] = aggregate
    result = benchmark(
        lambda: session.evaluator.answer(transformed)
    )
    assert len(result) > 0
