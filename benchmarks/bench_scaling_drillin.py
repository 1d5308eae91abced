"""EXP-4 (Figure C): DRILL-IN (Algorithm 2) vs. scratch as the instance grows.

DRILL-IN is the least favourable rewriting because it must consult the
instance through the auxiliary query q_aux; the expected shape is still a
win over scratch (q_aux touches only the classifier fragment around the new
dimension, not the measure side), with a smaller factor than DRILL-OUT.
"""

import pytest

from repro.bench.workloads import SCALES, bench_scale_from_env
from repro.datagen.generic import GenericConfig, generic_dataset, generic_query
from repro.olap import DrillIn, OLAPSession
from repro.olap.auxiliary import build_auxiliary_query
from repro.olap.rewriting import drill_in_from_partial

SWEEP = [int(value) for value in SCALES[bench_scale_from_env()]["sweep"]]

_CACHE = {}


def _session_for(facts: int):
    if facts not in _CACHE:
        config = GenericConfig(
            facts=facts, dimensions=3, values_per_dimension=1.4, measures_per_fact=2.0, with_detail=True
        )
        dataset = generic_dataset(config)
        session = OLAPSession(dataset.instance, dataset.schema)
        query = generic_query(config, aggregate="count", include_detail_in_classifier=True)
        session.execute(query)
        _CACHE[facts] = (session, query)
    return _CACHE[facts]


@pytest.mark.parametrize("facts", SWEEP)
def test_drill_in_rewrite_scaling(benchmark, facts):
    session, query = _session_for(facts)
    operation = DrillIn("da")
    transformed = operation.apply(query)
    partial = session.materialized(query).partial
    instance_evaluator = session.evaluator.bgp_evaluator
    benchmark.extra_info["facts"] = facts
    benchmark.extra_info["pres_rows"] = len(partial)
    result = benchmark(
        lambda: drill_in_from_partial(partial, query, transformed, instance_evaluator)
    )
    assert len(result) > 0


@pytest.mark.parametrize("facts", SWEEP)
def test_drill_in_scratch_scaling(benchmark, facts):
    session, query = _session_for(facts)
    operation = DrillIn("da")
    transformed = operation.apply(query)
    benchmark.extra_info["facts"] = facts
    benchmark.extra_info["instance_triples"] = len(session.instance)
    result = benchmark(
        lambda: session.evaluator.answer(transformed)
    )
    assert len(result) > 0


@pytest.mark.parametrize("facts", SWEEP)
def test_auxiliary_query_evaluation_only(benchmark, facts):
    """The instance-touching part of Algorithm 2 in isolation (ablation)."""
    session, query = _session_for(facts)
    auxiliary = build_auxiliary_query(query.classifier, "da")
    instance_evaluator = session.evaluator.bgp_evaluator
    benchmark.extra_info["facts"] = facts
    result = benchmark(lambda: instance_evaluator.evaluate(auxiliary, semantics="set"))
    assert len(result) > 0
