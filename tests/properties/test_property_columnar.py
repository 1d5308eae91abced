"""Differential oracle: the columnar engine against the row engine.

Hypothesis generates chains of up to six OLAP operations over blogger and
video instances across all five aggregates (plus count_distinct); at the
root and after every transformation the columnar engine's from-scratch
``ans(Q)`` must be cell-for-cell equal to the row engine's, and ``pres(Q)``
bag-equal once the opaque ``newk()`` keys are projected away.  This mirrors
the maintenance and parallel differential suites: whatever the engines'
internals, the cube is the contract.
"""

import pytest

pytest.importorskip("numpy")  # the suite forces engine="columnar" explicitly

from hypothesis import given, settings, strategies as st

from repro.analytics.evaluator import AnalyticalQueryEvaluator
from repro.analytics.query import AnalyticalQuery, KEY_COLUMN
from repro.algebra.operators import project
from repro.datagen import BloggerConfig, VideoConfig, blogger_dataset, video_dataset
from repro.datagen.blogger import words_per_blogger_query
from repro.datagen.videos import views_per_url_query
from repro.olap.cube import Cube
from repro.olap.operations import Dice, DrillIn, DrillOut, Slice

_SETTINGS = dict(max_examples=8, deadline=None, print_blob=True)

AGGREGATES = ("count", "sum", "avg", "min", "max", "count_distinct")

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
    base = (
        words_per_blogger_query(dataset.schema)
        if scenario == "blogger"
        else views_per_url_query(dataset.schema)
    )
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


def _assert_engines_agree(columnar_engine, row_engine, query):
    fast = columnar_engine.evaluate(query)
    slow = row_engine.evaluate(query)
    assert Cube(fast.answer, query).same_cells(Cube(slow.answer, query)), (
        f"columnar diverged from the row oracle on {query.name}"
    )
    keyless = [name for name in slow.partial.columns if name != KEY_COLUMN]
    assert project(fast.partial.storage, keyless).bag_equal(
        project(slow.partial.storage, keyless)
    ), f"pres(Q) diverged modulo keys on {query.name}"


@given(
    data=st.data(),
    seed=st.integers(min_value=0, max_value=15),
    scenario=st.sampled_from(["blogger", "video"]),
    aggregate=st.sampled_from(AGGREGATES),
    chain_length=st.integers(min_value=1, max_value=6),
)
@settings(**_SETTINGS)
def test_columnar_chain_matches_row_oracle(data, seed, scenario, aggregate, chain_length):
    dataset = _blogger(seed) if scenario == "blogger" else _video(seed)
    columnar_engine = AnalyticalQueryEvaluator(dataset.instance, engine="columnar")
    row_engine = AnalyticalQueryEvaluator(dataset.instance, engine="rows")
    query = _root_query(scenario, dataset, aggregate)
    pools = _value_pool(row_engine, query)

    _assert_engines_agree(columnar_engine, row_engine, query)
    current = query
    for _ in range(chain_length):
        operation = _draw_operation(data.draw, current, pools)
        if operation is None:
            break
        current = operation.apply(current)
        _assert_engines_agree(columnar_engine, row_engine, current)


@given(
    seed=st.integers(min_value=0, max_value=15),
    aggregate=st.sampled_from(AGGREGATES),
    shards=st.sampled_from((1, 3, 7)),
)
@settings(**_SETTINGS)
def test_columnar_shard_evaluation_matches_row_oracle(seed, aggregate, shards):
    """The batched fact-range prune: per-shard columnar evaluation merges to
    the serial row answer across shard counts (array-form γ states)."""
    from repro.olap.parallel import ParallelExecutor

    dataset = _blogger(seed)
    query = _root_query("blogger", dataset, aggregate)
    row_engine = AnalyticalQueryEvaluator(dataset.instance, engine="rows")
    executor = ParallelExecutor(
        AnalyticalQueryEvaluator(dataset.instance, engine="columnar"),
        workers=1,
        shard_count=shards,
        backend="serial",
    )
    try:
        merged = executor.evaluate(query)
        oracle = row_engine.evaluate(query)
        assert Cube(merged.answer, query).same_cells(Cube(oracle.answer, query))
        keyless = [name for name in oracle.partial.columns if name != KEY_COLUMN]
        assert project(merged.partial.storage, keyless).bag_equal(
            project(oracle.partial.storage, keyless)
        )
    finally:
        executor.close()
