"""EXP-7 (Table 2): DRILL-OUT and DRILL-IN cost vs. the number of dimensions.

More classifier dimensions mean wider pres(Q) rows and more dimension-value
combinations; the experiment checks how both rewritings and the scratch
baseline respond (expected: all grow, rewriting keeps its advantage).
"""

import pytest

from repro.bench.workloads import SCALES, bench_scale_from_env
from repro.datagen.generic import GenericConfig, generic_dataset, generic_query
from repro.olap import DrillIn, DrillOut, OLAPSession
from repro.olap.rewriting import drill_in_from_partial, drill_out_from_partial

DIMENSIONS = [2, 3, 4, 5]

_CACHE = {}


def _session_for(dimensions: int):
    if dimensions not in _CACHE:
        parameters = SCALES[bench_scale_from_env()]
        config = GenericConfig(
            facts=int(parameters["facts"]),
            dimensions=dimensions,
            values_per_dimension=1.3,
            with_detail=True,
        )
        dataset = generic_dataset(config)
        session = OLAPSession(dataset.instance, dataset.schema)
        count_query = generic_query(config, aggregate="count")
        session.execute(count_query)
        detail_query = generic_query(
            config, aggregate="count", include_detail_in_classifier=True, name="Qd"
        )
        session.execute(detail_query)
        _CACHE[dimensions] = (session, count_query, detail_query)
    return _CACHE[dimensions]


@pytest.mark.parametrize("dimensions", DIMENSIONS)
def test_drill_out_rewrite_dimensionality(benchmark, dimensions):
    session, query, _ = _session_for(dimensions)
    operation = DrillOut(query.dimension_names[-1])
    transformed = operation.apply(query)
    partial = session.materialized(query).partial
    benchmark.extra_info["dimensions"] = dimensions
    benchmark(lambda: drill_out_from_partial(partial, query, transformed))


@pytest.mark.parametrize("dimensions", DIMENSIONS)
def test_drill_out_scratch_dimensionality(benchmark, dimensions):
    session, query, _ = _session_for(dimensions)
    operation = DrillOut(query.dimension_names[-1])
    transformed = operation.apply(query)
    benchmark.extra_info["dimensions"] = dimensions
    benchmark(lambda: session.evaluator.answer(transformed))


@pytest.mark.parametrize("dimensions", DIMENSIONS)
def test_drill_in_rewrite_dimensionality(benchmark, dimensions):
    session, _, query = _session_for(dimensions)
    operation = DrillIn("da")
    transformed = operation.apply(query)
    partial = session.materialized(query).partial
    instance_evaluator = session.evaluator.bgp_evaluator
    benchmark.extra_info["dimensions"] = dimensions
    benchmark(lambda: drill_in_from_partial(partial, query, transformed, instance_evaluator))


@pytest.mark.parametrize("dimensions", DIMENSIONS)
def test_drill_in_scratch_dimensionality(benchmark, dimensions):
    session, _, query = _session_for(dimensions)
    operation = DrillIn("da")
    transformed = operation.apply(query)
    benchmark.extra_info["dimensions"] = dimensions
    benchmark(lambda: session.evaluator.answer(transformed))
