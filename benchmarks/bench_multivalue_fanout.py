"""EXP-6 (Figure E): DRILL-OUT under increasing dimension multi-valuedness.

Fan-out (values per fact per dimension) is the RDF-specific parameter that
(a) grows pres(Q) — so Algorithm 1's cost grows with it — and (b) makes the
naive ans(Q)-based re-aggregation wrong (Example 5).  The benchmark times
Algorithm 1 and the scratch baseline per fan-out level; the companion
correctness measurement (how many cells the naive rewriting gets wrong) is
reported by ``repro.bench.workloads.experiment_multivalue_fanout`` and in
EXPERIMENTS.md.
"""

import pytest

from repro.bench.workloads import SCALES, bench_scale_from_env
from repro.datagen.generic import GenericConfig, generic_dataset, generic_query
from repro.olap import DrillOut, OLAPSession
from repro.olap.rewriting import drill_out_from_partial

FANOUTS = [1.0, 1.5, 2.0, 3.0]

_CACHE = {}


def _session_for(fanout: float):
    if fanout not in _CACHE:
        parameters = SCALES[bench_scale_from_env()]
        config = GenericConfig(
            facts=int(parameters["facts"]),
            dimensions=2,
            values_per_dimension=fanout,
            measures_per_fact=1.5,
            with_detail=False,
        )
        dataset = generic_dataset(config)
        session = OLAPSession(dataset.instance, dataset.schema)
        query = generic_query(config, aggregate="sum")
        session.execute(query)
        _CACHE[fanout] = (session, query)
    return _CACHE[fanout]


@pytest.mark.parametrize("fanout", FANOUTS)
def test_drill_out_rewrite_fanout(benchmark, fanout):
    session, query = _session_for(fanout)
    operation = DrillOut(query.dimension_names[-1])
    transformed = operation.apply(query)
    partial = session.materialized(query).partial
    benchmark.extra_info["fanout"] = fanout
    benchmark.extra_info["pres_rows"] = len(partial)
    result = benchmark(lambda: drill_out_from_partial(partial, query, transformed))
    assert len(result) > 0


@pytest.mark.parametrize("fanout", FANOUTS)
def test_drill_out_scratch_fanout(benchmark, fanout):
    session, query = _session_for(fanout)
    operation = DrillOut(query.dimension_names[-1])
    transformed = operation.apply(query)
    benchmark.extra_info["fanout"] = fanout
    result = benchmark(
        lambda: session.evaluator.answer(transformed)
    )
    assert len(result) > 0
