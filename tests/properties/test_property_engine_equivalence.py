"""Property-based equivalence of the engine and the naive reference oracle.

The id-space engine must be semantics-preserving: on randomized blogger and
video workloads, the naive Definition 1 evaluation, the Equation (3)
pipeline (``pres``-based) and the OLAP-rewritten answers must all produce
identical cubes — and identical to the independent naive oracle
(:mod:`tests.naive_oracle`), whose decoded ``pres``/``ans`` also feed the
rewritings so the plain-value-space rewriting path stays covered.
"""

from hypothesis import given, settings, strategies as st

from repro.datagen import BloggerConfig, VideoConfig, blogger_dataset, video_dataset
from repro.datagen.blogger import sites_per_blogger_query, words_per_blogger_query
from repro.datagen.videos import views_per_url_query
from repro.analytics.evaluator import AnalyticalQueryEvaluator
from repro.olap.cube import Cube
from repro.olap.operations import DrillIn, DrillOut, Slice
from repro.olap.rewriting import (
    drill_in_from_partial,
    drill_out_from_partial,
    slice_dice_from_answer,
)

from tests.naive_oracle import NaiveAnalyticalEvaluator

_SETTINGS = dict(max_examples=8, deadline=None)

_blogger_cache = {}
_video_cache = {}


def _blogger(seed: int):
    if seed not in _blogger_cache:
        _blogger_cache[seed] = blogger_dataset(BloggerConfig(bloggers=25 + seed % 15, seed=seed))
    return _blogger_cache[seed]


def _video(seed: int):
    if seed not in _video_cache:
        _video_cache[seed] = video_dataset(
            VideoConfig(videos=20 + seed % 10, websites=6, seed=seed)
        )
    return _video_cache[seed]


def _cube(answer, query) -> Cube:
    return Cube(answer, query)


def _materialized_in_both_spaces(instance, query):
    """``(pres, ans)`` of ``query``: encoded by the engine, decoded by the oracle."""
    engine = AnalyticalQueryEvaluator(instance)
    materialized = engine.evaluate(query)
    oracle = NaiveAnalyticalEvaluator(instance)
    return engine, oracle, [
        (materialized.partial, materialized.answer),
        (oracle.partial_result(query), oracle.answer(query)),
    ]


@given(seed=st.integers(min_value=0, max_value=40), use_words=st.booleans())
@settings(**_SETTINGS)
def test_equation3_matches_definition1_and_the_oracle(seed, use_words):
    """answer() (Equation (3)) ≡ answer_definition1() ≡ the naive oracle."""
    dataset = _blogger(seed)
    query = (
        words_per_blogger_query(dataset.schema)
        if use_words
        else sites_per_blogger_query(dataset.schema)
    )
    engine = AnalyticalQueryEvaluator(dataset.instance)
    eq3 = _cube(engine.answer(query), query)
    def1 = _cube(engine.answer_definition1(query), query)
    oracle = _cube(NaiveAnalyticalEvaluator(dataset.instance).answer(query), query)

    assert eq3.same_cells(def1)
    assert eq3.same_cells(oracle)


@given(seed=st.integers(min_value=0, max_value=40))
@settings(**_SETTINGS)
def test_slice_and_drillout_rewriting_match_scratch_in_both_spaces(seed):
    """Rewritten SLICE / DRILL-OUT ≡ from-scratch ≡ oracle, over encoded and decoded inputs."""
    dataset = _blogger(seed)
    query = sites_per_blogger_query(dataset.schema)
    engine, oracle, inputs = _materialized_in_both_spaces(dataset.instance, query)
    for partial, answer in inputs:
        cube = _cube(answer, query)
        if not len(cube):
            continue

        value = sorted(cube.dimension_values(query.dimension_names[0]), key=repr)[0]
        slice_op = Slice(query.dimension_names[0], value)
        sliced_query = slice_op.apply(query)
        rewritten = _cube(slice_dice_from_answer(answer, sliced_query), sliced_query)
        assert rewritten.same_cells(_cube(engine.answer(sliced_query), sliced_query))
        assert rewritten.same_cells(_cube(oracle.answer(sliced_query), sliced_query))

        drill_op = DrillOut(query.dimension_names[0])
        drilled_query = drill_op.apply(query)
        rewritten = _cube(drill_out_from_partial(partial, query, drilled_query), drilled_query)
        assert rewritten.same_cells(_cube(engine.answer(drilled_query), drilled_query))
        assert rewritten.same_cells(_cube(oracle.answer(drilled_query), drilled_query))


@given(seed=st.integers(min_value=0, max_value=30))
@settings(**_SETTINGS)
def test_drillin_rewriting_matches_scratch_in_both_spaces(seed):
    """Rewritten DRILL-IN (pres ⋈ q_aux) ≡ from-scratch ≡ oracle, encoded and decoded pres."""
    dataset = _video(seed)
    query = views_per_url_query(dataset.schema)
    operation = DrillIn("d3")
    drilled_query = operation.apply(query)
    engine, oracle, inputs = _materialized_in_both_spaces(dataset.instance, query)
    scratch = _cube(engine.answer(drilled_query), drilled_query)
    assert scratch.same_cells(_cube(oracle.answer(drilled_query), drilled_query))
    for partial, _ in inputs:
        rewritten = _cube(
            drill_in_from_partial(partial, query, drilled_query, engine.bgp_evaluator),
            drilled_query,
        )
        assert rewritten.same_cells(scratch)
