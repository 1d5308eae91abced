"""Property-based equivalence of the planner against both reference engines.

For random chains of OLAP operations (length ≤ 6) over randomized blogger
workloads, the cube the planner-driven session produces at every step must
equal the cube computed from scratch by the id-space engine AND the cube
computed by the naive reference oracle (:mod:`tests.naive_oracle`) —
regardless of the session's cache capacity, including the degenerate
capacities 0 (nothing ever cached: every plan falls back to scratch) and 1
(constant eviction churn).
"""

from hypothesis import given, settings, strategies as st

from repro.datagen import BloggerConfig, blogger_dataset
from repro.datagen.blogger import sites_per_blogger_query
from repro.analytics.evaluator import AnalyticalQueryEvaluator
from repro.olap.cube import Cube
from repro.olap.operations import Dice, DrillIn, DrillOut, Slice
from repro.olap.session import OLAPSession

from tests.naive_oracle import NaiveAnalyticalEvaluator

_SETTINGS = dict(max_examples=10, deadline=None)

_dataset_cache = {}


def _blogger(seed: int):
    if seed not in _dataset_cache:
        _dataset_cache[seed] = blogger_dataset(BloggerConfig(bloggers=20 + seed % 12, seed=seed))
    return _dataset_cache[seed]


def _value_pool(dataset, query):
    """Root-cube dimension values to draw SLICE/DICE arguments from."""
    cube = Cube(AnalyticalQueryEvaluator(dataset.instance).answer(query), query)
    return {
        dimension: sorted(cube.dimension_values(dimension), key=repr)
        for dimension in query.dimension_names
    }


def _draw_operation(draw, query, pools):
    """Draw one OLAP operation applicable to ``query`` (None when stuck).

    SLICE/DICE arguments are filtered through the query's current Σ so the
    drawn restriction never intersects to the empty set (which Definition 2
    forbids and Sigma rejects).
    """
    dimensions = list(query.dimension_names)
    choices = []
    sliceable = [
        (dimension, [v for v in pools.get(dimension, []) if query.sigma[dimension].allows(v)])
        for dimension in dimensions
    ]
    sliceable = [(dimension, values) for dimension, values in sliceable if values]
    if sliceable:
        choices.append("slice")
        choices.append("dice")
    if dimensions:
        choices.append("drill-out")
    # Dimensions drilled out earlier stay in the classifier body and can be
    # drilled back in; root-query bodies here have no other candidates.
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


@given(
    data=st.data(),
    seed=st.integers(min_value=0, max_value=25),
    chain_length=st.integers(min_value=1, max_value=6),
    capacity=st.sampled_from([0, 1, None]),
)
@settings(**_SETTINGS)
def test_planner_chain_matches_both_engines(data, seed, chain_length, capacity):
    dataset = _blogger(seed)
    query = sites_per_blogger_query(dataset.schema)
    pools = _value_pool(dataset, query)

    kwargs = {} if capacity is None else {"cache_capacity": capacity}
    session = OLAPSession(dataset.instance, dataset.schema, **kwargs)
    scratch_engine = AnalyticalQueryEvaluator(dataset.instance)
    oracle_engine = NaiveAnalyticalEvaluator(dataset.instance)

    session.execute(query)
    current = query
    for _ in range(chain_length):
        operation = _draw_operation(data.draw, current, pools)
        if operation is None:
            break
        planned = session.transform(current, operation, strategy="plan")
        transformed = planned.query
        scratch = Cube(scratch_engine.answer(transformed), transformed)
        oracle = Cube(oracle_engine.answer(transformed), transformed)
        assert planned.same_cells(scratch), (
            f"planner diverged from id-space scratch on {transformed.name} "
            f"(strategy {session.history[-1].strategy}, capacity {capacity})"
        )
        assert scratch.same_cells(oracle), f"engine diverged from the oracle on {transformed.name}"
        current = transformed


@given(seed=st.integers(min_value=0, max_value=25), capacity=st.sampled_from([0, 1, None]))
@settings(**_SETTINGS)
def test_repeated_operation_is_cache_stable(seed, capacity):
    """Answering the same operation twice gives identical cubes at any capacity."""
    dataset = _blogger(seed)
    query = sites_per_blogger_query(dataset.schema)
    pools = _value_pool(dataset, query)
    values = pools["dage"]
    if not values:
        return
    operation = Slice("dage", values[0])

    kwargs = {} if capacity is None else {"cache_capacity": capacity}
    session = OLAPSession(dataset.instance, dataset.schema, **kwargs)
    session.execute(query)
    first = session.transform(query, operation, strategy="plan")
    second = session.transform(query, operation, strategy="plan")
    assert first.same_cells(second)
    scratch = Cube(AnalyticalQueryEvaluator(dataset.instance).answer(first.query), first.query)
    assert second.same_cells(scratch)
