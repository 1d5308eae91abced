"""EXP-1 (Table 1): rewriting vs. from-scratch, per OLAP operation, fixed instance.

Benchmarked pairs (each operation once per strategy):

* SLICE  — σ over ans(Q)           vs. re-evaluating Q_SLICE on the instance;
* DICE   — σ over ans(Q)           vs. re-evaluating Q_DICE;
* DRILL-OUT — Algorithm 1 on pres(Q) vs. re-evaluating Q_DRILL-OUT;
* DRILL-IN  — Algorithm 2 on pres(Q)+q_aux vs. re-evaluating Q_DRILL-IN
  (on the video scenario, whose classifier has the required existential
  variable).

The paper's claim (shape): every rewrite row is faster than its scratch row,
SLICE/DICE by the largest factor.

The trailing ``test_scratch_engine_idspace`` times the from-scratch path on
its own (the query itself, no operation), checked against the session's
materialized answer.
"""

import pytest

from repro.analytics.evaluator import AnalyticalQueryEvaluator
from repro.olap import Dice, DrillIn, DrillOut, Slice
from repro.olap.cube import Cube
from repro.olap.rewriting import (
    drill_in_from_partial,
    drill_out_from_partial,
    slice_dice_from_answer,
)


def _first_value(session, query, dimension):
    cube_answer = session.materialized(query).answer
    return sorted(cube_answer.relation.distinct_values(dimension), key=repr)[0]


def _values(session, query, dimension, count):
    cube_answer = session.materialized(query).answer
    return sorted(cube_answer.relation.distinct_values(dimension), key=repr)[:count]


# --- SLICE -----------------------------------------------------------------


def test_slice_rewrite(benchmark, blogger_bench_session):
    session, query = blogger_bench_session
    operation = Slice("dage", _first_value(session, query, "dage"))
    transformed = operation.apply(query)
    materialized = session.materialized(query)
    result = benchmark(lambda: slice_dice_from_answer(materialized.answer, transformed))
    assert len(result) >= 0


def test_slice_scratch(benchmark, blogger_bench_session):
    session, query = blogger_bench_session
    operation = Slice("dage", _first_value(session, query, "dage"))
    transformed = operation.apply(query)
    result = benchmark(
        lambda: session.evaluator.answer(transformed)
    )
    assert len(result) >= 0


# --- DICE ------------------------------------------------------------------


def test_dice_rewrite(benchmark, blogger_bench_session):
    session, query = blogger_bench_session
    operation = Dice({"dage": (20, 40), "dcity": _values(session, query, "dcity", 3)})
    transformed = operation.apply(query)
    materialized = session.materialized(query)
    result = benchmark(lambda: slice_dice_from_answer(materialized.answer, transformed))
    assert len(result) >= 0


def test_dice_scratch(benchmark, blogger_bench_session):
    session, query = blogger_bench_session
    operation = Dice({"dage": (20, 40), "dcity": _values(session, query, "dcity", 3)})
    transformed = operation.apply(query)
    result = benchmark(
        lambda: session.evaluator.answer(transformed)
    )
    assert len(result) >= 0


# --- DRILL-OUT ---------------------------------------------------------------


def test_drill_out_rewrite(benchmark, blogger_bench_session):
    session, query = blogger_bench_session
    operation = DrillOut("dage")
    transformed = operation.apply(query)
    partial = session.materialized(query).partial
    result = benchmark(lambda: drill_out_from_partial(partial, query, transformed))
    assert len(result) > 0


def test_drill_out_scratch(benchmark, blogger_bench_session):
    session, query = blogger_bench_session
    operation = DrillOut("dage")
    transformed = operation.apply(query)
    result = benchmark(
        lambda: session.evaluator.answer(transformed)
    )
    assert len(result) > 0


# --- DRILL-IN ----------------------------------------------------------------


def test_drill_in_rewrite(benchmark, video_bench_session):
    session, query = video_bench_session
    operation = DrillIn("d3")
    transformed = operation.apply(query)
    partial = session.materialized(query).partial
    instance_evaluator = session.evaluator.bgp_evaluator
    result = benchmark(
        lambda: drill_in_from_partial(partial, query, transformed, instance_evaluator)
    )
    assert len(result) > 0


def test_drill_in_scratch(benchmark, video_bench_session):
    session, query = video_bench_session
    operation = DrillIn("d3")
    transformed = operation.apply(query)
    result = benchmark(
        lambda: session.evaluator.answer(transformed)
    )
    assert len(result) > 0


# --- the from-scratch path on its own ---------------------------------------


def test_scratch_engine_idspace(benchmark, blogger_bench_session):
    """The engine: id-space end-to-end, late materialization."""
    session, query = blogger_bench_session
    evaluator = AnalyticalQueryEvaluator(session.instance)
    answer = benchmark(lambda: evaluator.answer(query))
    assert Cube(answer, query).same_cells(Cube(session.materialized(query).answer, query))
