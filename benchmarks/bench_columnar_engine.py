"""Columnar vs. row engine on the scaling slice-dice workload.

The same generic datasets and operations as ``bench_scaling_slice_dice``,
but comparing the two execution engines on the *from-scratch* path — the
cost the columnar kernels attack.  Every measured pair also asserts
``Cube.same_cells`` equality between the engines, and
``test_columnar_speedup_at_largest_size`` enforces the acceptance bar: at
the largest sweep size the columnar engine must answer the slice-dice
operations at least 3x faster than the row engine.

Run with ``REPRO_BENCH_SCALE=small|paper`` for larger sweeps (default
small; the speedup grows with instance size — vectorization amortizes its
fixed per-operator overhead).
"""

import time

import pytest

np = pytest.importorskip("numpy")

from repro.analytics.evaluator import AnalyticalQueryEvaluator
from repro.datagen.generic import GenericConfig, generic_dataset, generic_query
from repro.olap import Dice, OLAPSession, Slice
from repro.olap.cube import Cube

from repro.bench.workloads import SCALES, bench_scale_from_env

SWEEP = [int(value) for value in SCALES[bench_scale_from_env()]["sweep"]]

#: The acceptance bar only applies at sizes where vectorization has data to
#: amortize over; below this the assertion degrades to "not slower".
SPEEDUP_FLOOR_FACTS = 1000
SPEEDUP_FLOOR = 3.0


def _prepared(facts: int):
    config = GenericConfig(
        facts=facts, dimensions=3, values_per_dimension=1.4, measures_per_fact=2.0
    )
    dataset = generic_dataset(config)
    session = OLAPSession(dataset.instance, dataset.schema)
    query = generic_query(config, aggregate="count")
    session.execute(query)
    return session, query


_CACHE = {}


def _session_for(facts: int):
    if facts not in _CACHE:
        session, query = _prepared(facts)
        engines = {
            engine: AnalyticalQueryEvaluator(session.instance, engine=engine)
            for engine in ("rows", "columnar")
        }
        _CACHE[facts] = (session, query, engines)
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


def _assert_engines_equal(engines, query, operation):
    transformed = operation.apply(query)
    cubes = {
        engine: Cube(
            evaluator.answer(transformed),
            transformed,
        )
        for engine, evaluator in engines.items()
    }
    assert cubes["columnar"].same_cells(cubes["rows"])


@pytest.mark.parametrize("facts", SWEEP)
@pytest.mark.parametrize("engine", ["rows", "columnar"])
def test_slice_scratch_by_engine(benchmark, facts, engine):
    session, query, engines = _session_for(facts)
    operation = _slice_operation(session, query)
    transformed = operation.apply(query)
    evaluator = engines[engine]
    benchmark.extra_info["facts"] = facts
    benchmark.extra_info["engine"] = engine
    benchmark(
        lambda: evaluator.answer(transformed)
    )
    _assert_engines_equal(engines, query, operation)


@pytest.mark.parametrize("facts", SWEEP)
@pytest.mark.parametrize("engine", ["rows", "columnar"])
def test_dice_scratch_by_engine(benchmark, facts, engine):
    session, query, engines = _session_for(facts)
    operation = _dice_operation(session, query)
    transformed = operation.apply(query)
    evaluator = engines[engine]
    benchmark.extra_info["facts"] = facts
    benchmark.extra_info["engine"] = engine
    benchmark(
        lambda: evaluator.answer(transformed)
    )
    _assert_engines_equal(engines, query, operation)


def _best_of(callable_, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return best


def test_columnar_speedup_at_largest_size():
    """The acceptance bar: >=3x at the largest scaling slice-dice size.

    Both engines answer the SLICE and the DICE from scratch; the summed
    best-of-five times must show the columnar engine >=3x faster (cube
    equality asserted first, so the speedup is never bought with wrong
    cells).  Below ``SPEEDUP_FLOOR_FACTS`` (the tiny CI scale) the bar
    relaxes to "not slower" — fixed per-operator overheads dominate there.
    """
    facts = max(SWEEP)
    session, query, engines = _session_for(facts)
    operations = [_slice_operation(session, query), _dice_operation(session, query)]
    for operation in operations:
        _assert_engines_equal(engines, query, operation)

    totals = {}
    for engine, evaluator in engines.items():
        def run_all(evaluator=evaluator):
            for operation in operations:
                transformed = operation.apply(query)
                evaluator.answer(transformed)

        run_all()  # warm-up: statistics + (for columnar) the triple index
        totals[engine] = _best_of(run_all)

    speedup = totals["rows"] / totals["columnar"]
    floor = SPEEDUP_FLOOR if facts >= SPEEDUP_FLOOR_FACTS else 1.0
    assert speedup >= floor, (
        f"columnar speedup {speedup:.2f}x below the {floor}x bar at {facts} facts "
        f"(rows {totals['rows'] * 1000:.2f} ms, columnar {totals['columnar'] * 1000:.2f} ms)"
    )
