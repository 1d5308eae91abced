"""EXP-3 (Figure B): DRILL-OUT (Algorithm 1) vs. scratch as the instance grows.

Expected shape: Algorithm 1's cost tracks |pres(Q)| (facts × measure values ×
multi-valued dimension combinations), which is a fraction of the instance;
the scratch curve re-runs classifier + measure + join over the full instance
and grows faster.
"""

import pytest

from repro.bench.workloads import SCALES, bench_scale_from_env
from repro.datagen.generic import GenericConfig, generic_dataset, generic_query
from repro.olap import DrillOut, OLAPSession
from repro.olap.rewriting import drill_out_from_partial

SWEEP = [int(value) for value in SCALES[bench_scale_from_env()]["sweep"]]

_CACHE = {}


def _session_for(facts: int):
    if facts not in _CACHE:
        config = GenericConfig(
            facts=facts, dimensions=3, values_per_dimension=1.4, measures_per_fact=2.0
        )
        dataset = generic_dataset(config)
        session = OLAPSession(dataset.instance, dataset.schema)
        query = generic_query(config, aggregate="count")
        session.execute(query)
        _CACHE[facts] = (session, query)
    return _CACHE[facts]


@pytest.mark.parametrize("facts", SWEEP)
def test_drill_out_rewrite_scaling(benchmark, facts):
    session, query = _session_for(facts)
    operation = DrillOut(query.dimension_names[-1])
    transformed = operation.apply(query)
    partial = session.materialized(query).partial
    benchmark.extra_info["facts"] = facts
    benchmark.extra_info["pres_rows"] = len(partial)
    result = benchmark(lambda: drill_out_from_partial(partial, query, transformed))
    assert len(result) > 0


@pytest.mark.parametrize("facts", SWEEP)
def test_drill_out_scratch_scaling(benchmark, facts):
    session, query = _session_for(facts)
    operation = DrillOut(query.dimension_names[-1])
    transformed = operation.apply(query)
    benchmark.extra_info["facts"] = facts
    benchmark.extra_info["instance_triples"] = len(session.instance)
    result = benchmark(
        lambda: session.evaluator.answer(transformed)
    )
    assert len(result) > 0
