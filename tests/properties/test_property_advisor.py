"""Property-based safety of the calibrated cost model and the advisor loop.

A fitted :class:`~repro.olap.calibration.CostModel` may change *which
strategy* the planner picks — that is its purpose — but it must never
change *which cube* a transformation produces.  For random ≤6-op chains
over randomized blogger workloads (the oracle style of
``test_property_planner.py``), a session planned with a cost model fitted
from a profile pass — and optionally warm-started by the advisor's
recommendations — must produce cell-for-cell the same cube as from-scratch
evaluation at every step.
"""

from hypothesis import given, settings, strategies as st

from repro.datagen import BloggerConfig, blogger_dataset
from repro.datagen.blogger import sites_per_blogger_query
from repro.analytics.evaluator import AnalyticalQueryEvaluator
from repro.olap.calibration import MAX_SCALE, MIN_SCALE, CostModel
from repro.olap.cube import Cube
from repro.olap.session import OLAPSession

from tests.properties.test_property_planner import _blogger, _draw_operation, _value_pool

_SETTINGS = dict(max_examples=10, deadline=None)


def _chain(data, session, query, pools, chain_length):
    """Replay a random chain, asserting every planned cube against scratch."""
    scratch_engine = AnalyticalQueryEvaluator(session.instance)
    session.execute(query)
    current = query
    for _ in range(chain_length):
        operation = _draw_operation(data.draw, current, pools)
        if operation is None:
            break
        planned = session.transform(current, operation, strategy="plan")
        transformed = planned.query
        scratch = Cube(scratch_engine.answer(transformed), transformed)
        assert planned.same_cells(scratch), (
            f"fitted-model planner diverged from scratch on {transformed.name} "
            f"(strategy {session.history[-1].strategy}, "
            f"model {session.planner.cost_model.describe()})"
        )
        current = transformed


@given(
    data=st.data(),
    seed=st.integers(min_value=0, max_value=25),
    chain_length=st.integers(min_value=1, max_value=6),
)
@settings(**_SETTINGS)
def test_fitted_model_never_changes_the_cube(data, seed, chain_length):
    dataset = _blogger(seed)
    query = sites_per_blogger_query(dataset.schema)
    pools = _value_pool(dataset, query)

    # Profile pass: random chain under the static model.
    profile = OLAPSession(dataset.instance, dataset.schema)
    _chain(data, profile, query, pools, chain_length)
    fitted = profile.fit_cost_model()

    # Replay another random chain under the fitted model.
    session = OLAPSession(dataset.instance, dataset.schema, cost_model=fitted)
    _chain(data, session, query, pools, chain_length)


@given(
    data=st.data(),
    seed=st.integers(min_value=0, max_value=25),
    chain_length=st.integers(min_value=1, max_value=6),
)
@settings(**_SETTINGS)
def test_advised_warm_start_never_changes_the_cube(data, seed, chain_length):
    dataset = _blogger(seed)
    query = sites_per_blogger_query(dataset.schema)
    pools = _value_pool(dataset, query)

    profile = OLAPSession(dataset.instance, dataset.schema)
    _chain(data, profile, query, pools, chain_length)
    report = profile.advise()

    session = OLAPSession(
        dataset.instance, dataset.schema, cost_model=report.cost_model
    )
    session.apply_recommendations(report)
    _chain(data, session, query, pools, chain_length)


@given(
    data=st.data(),
    seed=st.integers(min_value=0, max_value=25),
    chain_length=st.integers(min_value=1, max_value=6),
)
@settings(**_SETTINGS)
def test_adversarial_model_never_changes_the_cube(data, seed, chain_length):
    """Even a worst-case (but clamp-legal) model only changes strategies."""
    extreme = st.sampled_from([MIN_SCALE, 1.0, MAX_SCALE])
    model = CostModel(
        select_row_cost=data.draw(extreme),
        group_row_cost=data.draw(extreme),
        join_row_cost=data.draw(extreme),
        cached_cell_cost=data.draw(extreme) * 0.05,
        merge_cell_cost=data.draw(extreme) * 0.5,
        source="fitted",
    )
    dataset = _blogger(seed)
    query = sites_per_blogger_query(dataset.schema)
    pools = _value_pool(dataset, query)
    session = OLAPSession(dataset.instance, dataset.schema, cost_model=model)
    _chain(data, session, query, pools, chain_length)


@given(seed=st.integers(min_value=0, max_value=25))
@settings(**_SETTINGS)
def test_fitted_scales_stay_clamped(seed):
    dataset = _blogger(seed)
    query = sites_per_blogger_query(dataset.schema)
    session = OLAPSession(dataset.instance, dataset.schema)
    session.execute(query)
    from repro.olap.operations import DrillOut

    for dimension in list(query.dimension_names):
        session.transform(query, DrillOut(dimension), strategy="plan")
    model = session.fit_cost_model()
    for family, scale in model.family_scales.items():
        assert MIN_SCALE <= scale <= MAX_SCALE, (family, scale)
