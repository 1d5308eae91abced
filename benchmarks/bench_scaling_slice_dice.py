"""EXP-2 (Figure A): SLICE/DICE rewriting vs. scratch as the instance grows.

Each benchmark is parameterized by the number of facts in the generic
dataset; the series of rewrite vs. scratch medians over the sweep is the
figure's pair of curves.  Expected shape: the rewrite curve stays nearly
flat (its input is ans(Q), whose size tracks the number of distinct
dimension combinations), while the scratch curve grows with the instance.
"""

import pytest

from repro.datagen.generic import GenericConfig, generic_dataset, generic_query
from repro.olap import Dice, OLAPSession, Slice
from repro.olap.rewriting import slice_dice_from_answer

from repro.bench.workloads import SCALES, bench_scale_from_env

SWEEP = [int(value) for value in SCALES[bench_scale_from_env()]["sweep"]]


def _prepared_session(facts: int):
    config = GenericConfig(facts=facts, dimensions=3, values_per_dimension=1.4, measures_per_fact=2.0)
    dataset = generic_dataset(config)
    session = OLAPSession(dataset.instance, dataset.schema)
    query = generic_query(config, aggregate="count")
    session.execute(query)
    return session, query


_CACHE = {}


def _session_for(facts: int):
    if facts not in _CACHE:
        _CACHE[facts] = _prepared_session(facts)
    return _CACHE[facts]


def _slice_operation(session, query):
    answer = session.materialized(query).answer
    value = sorted(answer.relation.distinct_values(query.dimension_names[0]), key=repr)[0]
    return Slice(query.dimension_names[0], value)


def _dice_operation(session, query):
    answer = session.materialized(query).answer
    first = sorted(answer.relation.distinct_values(query.dimension_names[0]), key=repr)[:5]
    second = sorted(answer.relation.distinct_values(query.dimension_names[1]), key=repr)[:5]
    return Dice({query.dimension_names[0]: first, query.dimension_names[1]: second})


@pytest.mark.parametrize("facts", SWEEP)
def test_slice_rewrite_scaling(benchmark, facts):
    session, query = _session_for(facts)
    operation = _slice_operation(session, query)
    transformed = operation.apply(query)
    answer = session.materialized(query).answer
    benchmark.extra_info["facts"] = facts
    benchmark(lambda: slice_dice_from_answer(answer, transformed))


@pytest.mark.parametrize("facts", SWEEP)
def test_slice_scratch_scaling(benchmark, facts):
    session, query = _session_for(facts)
    operation = _slice_operation(session, query)
    transformed = operation.apply(query)
    benchmark.extra_info["facts"] = facts
    benchmark(lambda: session.evaluator.answer(transformed))


@pytest.mark.parametrize("facts", SWEEP)
def test_dice_rewrite_scaling(benchmark, facts):
    session, query = _session_for(facts)
    operation = _dice_operation(session, query)
    transformed = operation.apply(query)
    answer = session.materialized(query).answer
    benchmark.extra_info["facts"] = facts
    benchmark(lambda: slice_dice_from_answer(answer, transformed))


@pytest.mark.parametrize("facts", SWEEP)
def test_dice_scratch_scaling(benchmark, facts):
    session, query = _session_for(facts)
    operation = _dice_operation(session, query)
    transformed = operation.apply(query)
    benchmark.extra_info["facts"] = facts
    benchmark(lambda: session.evaluator.answer(transformed))


# --- the from-scratch path on its own, per sweep size


@pytest.mark.parametrize("facts", SWEEP)
def test_scratch_engine_idspace_scaling(benchmark, facts):
    from repro.analytics.evaluator import AnalyticalQueryEvaluator
    from repro.olap.cube import Cube

    session, query = _session_for(facts)
    evaluator = AnalyticalQueryEvaluator(session.instance)
    benchmark.extra_info["facts"] = facts
    answer = benchmark(lambda: evaluator.answer(query))
    assert Cube(answer, query).same_cells(Cube(session.materialized(query).answer, query))
