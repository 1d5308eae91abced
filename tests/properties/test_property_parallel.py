"""Differential oracle for the partitioned parallel execution engine.

Hypothesis generates chains of up to six OLAP operations over blogger and
video instances; at the root and after **every** transformation the
shard-parallel engine (workers ∈ {1, 2, 4} × shard counts {1, 3, 7}, all
five aggregates COUNT/SUM/AVG/MIN/MAX plus count_distinct's set-merge path)
must produce a cube cell-for-cell equal to the serial id-space engine — the
oracle, mirroring PR 3's differential-maintenance suite.  ``pres(Q)`` must
also agree as a bag once the opaque ``newk()`` keys are projected away.

The worker/shard choice pools can be pinned from the environment
(``REPRO_PARALLEL_WORKERS`` / ``REPRO_PARALLEL_SHARDS``, comma-separated) —
that is how the CI shard-count matrix runs each leg against one
configuration.  The thread backend is used throughout: the merge algebra is
backend-independent, and the process backend's plumbing is covered by
``tests/olap/test_parallel.py``.
"""

import os

from hypothesis import given, settings, strategies as st

from repro.analytics.evaluator import AnalyticalQueryEvaluator
from repro.analytics.query import AnalyticalQuery, KEY_COLUMN
from repro.algebra.operators import project
from repro.datagen import BloggerConfig, VideoConfig, blogger_dataset, video_dataset
from repro.datagen.blogger import words_per_blogger_query
from repro.datagen.videos import views_per_url_query
from repro.olap.cube import Cube
from repro.olap.operations import Dice, DrillIn, DrillOut, Slice
from repro.olap.parallel import ParallelExecutor

#: Pinned profile: no deadline (instance evaluation dwarfs per-example
#: budgets), reproduction blob printed on CI failures.
_SETTINGS = dict(max_examples=8, deadline=None, print_blob=True)

AGGREGATES = ("count", "sum", "avg", "min", "max", "count_distinct")


def _env_choices(name, default):
    value = os.environ.get(name, "").strip()
    if value:
        return tuple(int(item) for item in value.split(","))
    return default


WORKER_CHOICES = _env_choices("REPRO_PARALLEL_WORKERS", (1, 2, 4))
SHARD_CHOICES = _env_choices("REPRO_PARALLEL_SHARDS", (1, 3, 7))

_dataset_cache = {}


def _blogger(seed: int):
    if ("blogger", seed) not in _dataset_cache:
        _dataset_cache[("blogger", seed)] = blogger_dataset(
            BloggerConfig(bloggers=14 + seed % 8, seed=seed)
        )
    return _dataset_cache[("blogger", seed)]


def _video(seed: int):
    if ("video", seed) not in _dataset_cache:
        _dataset_cache[("video", seed)] = video_dataset(
            VideoConfig(videos=12 + seed % 6, websites=5, seed=seed)
        )
    return _dataset_cache[("video", seed)]


def _root_query(scenario: str, dataset, aggregate: str) -> AnalyticalQuery:
    if scenario == "blogger":
        base = words_per_blogger_query(dataset.schema)
    else:
        base = views_per_url_query(dataset.schema)
    return AnalyticalQuery(
        base.classifier, base.measure, aggregate, name=f"Q_{scenario}_{aggregate}"
    )


def _value_pool(evaluator, query):
    cube = Cube(evaluator.answer(query), query)
    return {
        dimension: sorted(cube.dimension_values(dimension), key=repr)
        for dimension in query.dimension_names
    }


def _draw_operation(draw, query, pools):
    """Draw one applicable OLAP operation (None when the query is stuck)."""
    dimensions = list(query.dimension_names)
    sliceable = [
        (dimension, [v for v in pools.get(dimension, []) if query.sigma[dimension].allows(v)])
        for dimension in dimensions
    ]
    sliceable = [(dimension, values) for dimension, values in sliceable if values]
    choices = []
    if sliceable:
        choices.extend(["slice", "dice"])
    if dimensions:
        choices.append("drill-out")
    body = {variable.name for variable in query.classifier.variables()}
    drillable = sorted(body - set(dimensions) - {query.fact_variable.name})
    drillable = [name for name in drillable if name in pools]
    if drillable:
        choices.append("drill-in")
    if not choices:
        return None
    kind = draw(st.sampled_from(choices))
    if kind == "slice":
        dimension, values = draw(st.sampled_from(sliceable))
        return Slice(dimension, draw(st.sampled_from(values)))
    if kind == "dice":
        dimension, values = draw(st.sampled_from(sliceable))
        count = draw(st.integers(min_value=1, max_value=min(4, len(values))))
        start = draw(st.integers(min_value=0, max_value=len(values) - count))
        return Dice({dimension: values[start : start + count]})
    if kind == "drill-out":
        return DrillOut(draw(st.sampled_from(dimensions)))
    return DrillIn(draw(st.sampled_from(drillable)))


def _assert_parallel_matches_serial(executor, serial, query):
    parallel = executor.evaluate(query)
    oracle_partial = serial.partial_result(query)
    oracle = Cube(serial.answer_from_partial(query, oracle_partial), query)
    cube = Cube(parallel.answer, query)
    assert cube.same_cells(oracle), (
        f"parallel diverged from the serial oracle on {query.name} "
        f"({executor.workers} workers, {executor.shard_count} shards)"
    )
    keyless = [name for name in oracle_partial.columns if name != KEY_COLUMN]
    assert project(parallel.partial.storage, keyless).bag_equal(
        project(oracle_partial.storage, keyless)
    ), f"pres(Q) diverged modulo keys on {query.name}"


@given(
    data=st.data(),
    seed=st.integers(min_value=0, max_value=15),
    scenario=st.sampled_from(["blogger", "video"]),
    aggregate=st.sampled_from(AGGREGATES),
    workers=st.sampled_from(WORKER_CHOICES),
    shards=st.sampled_from(SHARD_CHOICES),
    chain_length=st.integers(min_value=1, max_value=6),
)
@settings(**_SETTINGS)
def test_parallel_chain_matches_serial_oracle(
    data, seed, scenario, aggregate, workers, shards, chain_length
):
    dataset = _blogger(seed) if scenario == "blogger" else _video(seed)
    serial = AnalyticalQueryEvaluator(dataset.instance)
    query = _root_query(scenario, dataset, aggregate)
    pools = _value_pool(serial, query)

    executor = ParallelExecutor(
        AnalyticalQueryEvaluator(dataset.instance),
        workers=workers,
        shard_count=shards,
        backend="thread" if workers > 1 else "serial",
    )
    try:
        _assert_parallel_matches_serial(executor, serial, query)
        current = query
        for _ in range(chain_length):
            operation = _draw_operation(data.draw, current, pools)
            if operation is None:
                break
            current = operation.apply(current)
            _assert_parallel_matches_serial(executor, serial, current)
    finally:
        executor.close()


@given(
    seed=st.integers(min_value=0, max_value=15),
    aggregate=st.sampled_from(AGGREGATES),
    workers=st.sampled_from(WORKER_CHOICES),
    shards=st.sampled_from(SHARD_CHOICES),
)
@settings(**_SETTINGS)
def test_parallel_session_execute_matches_serial_oracle(seed, aggregate, workers, shards):
    """OLAPSession(workers=...) serves root executes equal to the oracle.

    The session may route the evaluation serially (the planner prices tiny
    instances below the dispatch overhead) or in parallel; either way the
    served cube must match a from-scratch serial recomputation.
    """
    from repro.olap.session import OLAPSession

    dataset = _blogger(seed)
    query = _root_query("blogger", dataset, aggregate)
    serial = AnalyticalQueryEvaluator(dataset.instance)
    with OLAPSession(
        dataset.instance,
        dataset.schema,
        workers=workers,
        shard_count=shards,
        parallel_backend="thread",
    ) as session:
        cube = session.execute(query)
        assert cube.same_cells(Cube(serial.answer(query), query))
        assert session.history[-1].strategy in ("scratch", "parallel", "cache")
