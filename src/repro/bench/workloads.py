"""Experiment workload definitions (the EXP-* index of DESIGN.md).

Each experiment is a function returning a :class:`~repro.bench.harness.ResultTable`
with the rows/series the corresponding table or figure of the evaluation
reports: the OLAP operation, the answering strategy (rewriting vs. from
scratch), instance / materialized-input sizes, the measured times and the
speedup.  The pytest-benchmark modules under ``benchmarks/`` reuse the same
building blocks for statistically careful per-operation timing; these
functions are about regenerating whole tables/series in one call (used by
``examples/`` and to fill EXPERIMENTS.md).

All experiments accept a ``scale`` knob so they can be run quickly in CI
(`scale="small"`) or at a size closer to the paper's setting
(`scale="paper"`).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analytics.evaluator import AnalyticalQueryEvaluator
from repro.analytics.query import AnalyticalQuery
from repro.bench.harness import Measurement, ResultTable, time_callable
from repro.datagen.blogger import BloggerConfig, blogger_dataset, sites_per_blogger_query, words_per_blogger_query
from repro.datagen.generic import GenericConfig, generic_dataset, generic_query
from repro.datagen.videos import VideoConfig, video_dataset, views_per_url_query
from repro.olap.cache import canonical_query_key
from repro.olap.cube import Cube
from repro.olap.operations import Dice, DrillIn, DrillOut, OLAPOperation, Slice
from repro.olap.rewriting import drill_out_from_answer_naive
from repro.olap.session import OLAPSession

__all__ = [
    "SCALES",
    "bench_scale_from_env",
    "experiment_operations_table",
    "experiment_scaling",
    "experiment_dice_selectivity",
    "experiment_multivalue_fanout",
    "experiment_dimensionality",
    "experiment_pres_storage",
    "experiment_aggregates",
    "experiment_planner_sessions",
    "experiment_advisor_sessions",
    "experiment_incremental_refresh",
    "experiment_parallel_scaling",
    "experiment_serving",
    "experiment_ingest",
    "serving_load_run",
    "serving_fact_batch",
    "ingest_load_run",
    "ingest_mutation_stream",
    "blogger_session_replay",
    "video_session_replay",
    "blogger_update_batch",
    "video_update_batch",
    "replay_session",
    "replay_on_session",
    "advisor_session_comparison",
    "replay_after_update",
    "run_all_experiments",
]

#: Named experiment scales: triple-count targets for the scaling sweeps and
#: fact counts for the fixed-size experiments.
SCALES: Dict[str, Dict[str, object]] = {
    "tiny": {"facts": 200, "sweep": [100, 200, 400], "bloggers": 150, "videos": 150, "repeats": 2},
    "small": {"facts": 1000, "sweep": [250, 500, 1000, 2000], "bloggers": 600, "videos": 500, "repeats": 3},
    "paper": {"facts": 5000, "sweep": [1000, 2000, 5000, 10000, 20000], "bloggers": 3000, "videos": 2000, "repeats": 3},
}


def _scale(scale: str) -> Dict[str, object]:
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; expected one of {sorted(SCALES)}")
    return SCALES[scale]


def bench_scale_from_env(default: str = "small") -> str:
    """The benchmark scale selected via the ``REPRO_BENCH_SCALE`` environment variable."""
    import os

    scale = os.environ.get("REPRO_BENCH_SCALE", default)
    if scale not in SCALES:
        raise ValueError(
            f"REPRO_BENCH_SCALE must be one of {sorted(SCALES)}, got {scale!r}"
        )
    return scale


def _first_dimension_value(session: OLAPSession, query: AnalyticalQuery, dimension: str):
    """A dimension value present in the materialized answer (for SLICE/DICE)."""
    cube = Cube(session.materialized(query).answer, query)
    values = sorted(cube.dimension_values(dimension), key=repr)
    if not values:
        raise ValueError(f"dimension {dimension!r} has no values in the answer of {query.name!r}")
    return values[0]


def _dimension_values(session: OLAPSession, query: AnalyticalQuery, dimension: str, count: int) -> list:
    cube = Cube(session.materialized(query).answer, query)
    values = sorted(cube.dimension_values(dimension), key=repr)
    return values[: max(1, count)]


# ---------------------------------------------------------------------------
# EXP-1: per-operation comparison on the blogger scenario (Table 1)
# ---------------------------------------------------------------------------


def experiment_operations_table(scale: str = "small", repeats: Optional[int] = None) -> ResultTable:
    """EXP-1: rewriting vs. from-scratch for each OLAP operation, fixed instance."""
    parameters = _scale(scale)
    repeats = repeats or int(parameters["repeats"])
    dataset = blogger_dataset(BloggerConfig(bloggers=int(parameters["bloggers"])))
    session = OLAPSession(dataset.instance, dataset.schema)
    query = sites_per_blogger_query(dataset.schema)
    session.execute(query)

    age = _first_dimension_value(session, query, "dage")
    cities = _dimension_values(session, query, "dcity", 3)
    operations: List[Tuple[str, OLAPOperation]] = [
        ("SLICE", Slice("dage", age)),
        ("DICE", Dice({"dage": (20, 40), "dcity": cities})),
        ("DRILL-OUT", DrillOut("dage")),
        ("DRILL-IN", DrillIn("p")),
    ]
    # DRILL-IN needs a classifier body variable; the Example 1 classifier has
    # none beyond the dimensions, so use the words query (same classifier)
    # drilled into via a richer classifier: instead, drill in on the video
    # scenario below.  For the blogger table we use a classifier that walks
    # posts.  Simpler: skip DRILL-IN here if not applicable.
    table = ResultTable(
        ["operation", "strategy", "input rows", "time (ms)", "speedup", "cells", "equal"],
        title=f"EXP-1 — OLAP operations on the blogger cube ({len(dataset.instance)} instance triples)",
    )
    materialized = session.materialized(query)
    for label, operation in operations:
        try:
            operation.validate(query)
        except Exception:
            continue
        comparison = session.compare_strategies(query, operation)
        rewrite_ms = comparison["rewrite_seconds"] * 1000
        scratch_ms = comparison["scratch_seconds"] * 1000
        input_rows = (
            len(materialized.answer)
            if label in ("SLICE", "DICE")
            else len(materialized.partial)
        )
        table.add_row(label, "rewrite", input_rows, rewrite_ms, comparison["speedup"], len(comparison["rewrite_cube"]), comparison["equal"])
        table.add_row(label, "scratch", len(dataset.instance), scratch_ms, 1.0, len(comparison["scratch_cube"]), comparison["equal"])

    # DRILL-IN on the video scenario (Example 6 structure).
    video = video_dataset(VideoConfig(videos=int(parameters["videos"])))
    video_session = OLAPSession(video.instance, video.schema)
    video_query = views_per_url_query(video.schema)
    video_session.execute(video_query)
    comparison = video_session.compare_strategies(video_query, DrillIn("d3"))
    video_materialized = video_session.materialized(video_query)
    table.add_row(
        "DRILL-IN", "rewrite", len(video_materialized.partial),
        comparison["rewrite_seconds"] * 1000, comparison["speedup"],
        len(comparison["rewrite_cube"]), comparison["equal"],
    )
    table.add_row(
        "DRILL-IN", "scratch", len(video.instance),
        comparison["scratch_seconds"] * 1000, 1.0,
        len(comparison["scratch_cube"]), comparison["equal"],
    )
    return table


# ---------------------------------------------------------------------------
# EXP-2/3/4: scaling sweeps (Figures A-C)
# ---------------------------------------------------------------------------


def experiment_scaling(
    operation_kind: str = "slice",
    scale: str = "small",
    repeats: Optional[int] = None,
) -> ResultTable:
    """EXP-2/3/4: rewriting vs. scratch as the instance grows.

    ``operation_kind`` is one of ``"slice"``, ``"dice"``, ``"drill-out"``,
    ``"drill-in"``.
    """
    parameters = _scale(scale)
    repeats = repeats or int(parameters["repeats"])
    sweep: Sequence[int] = parameters["sweep"]  # type: ignore[assignment]
    table = ResultTable(
        ["facts", "instance triples", "pres rows", "rewrite (ms)", "scratch (ms)", "speedup", "equal"],
        title=f"EXP scaling — {operation_kind.upper()} rewriting vs. scratch",
    )
    for facts in sweep:
        config = GenericConfig(
            facts=int(facts),
            dimensions=3,
            values_per_dimension=1.4,
            measures_per_fact=2.0,
            with_detail=True,
        )
        dataset = generic_dataset(config)
        query = generic_query(config, aggregate="count", include_detail_in_classifier=(operation_kind == "drill-in"))
        session = OLAPSession(dataset.instance, dataset.schema)
        session.execute(query)
        operation = _operation_for(operation_kind, session, query)
        comparison = session.compare_strategies(query, operation)
        table.add_row(
            facts,
            len(dataset.instance),
            len(session.materialized(query).partial),
            comparison["rewrite_seconds"] * 1000,
            comparison["scratch_seconds"] * 1000,
            comparison["speedup"],
            comparison["equal"],
        )
    return table


def _operation_for(kind: str, session: OLAPSession, query: AnalyticalQuery) -> OLAPOperation:
    if kind == "slice":
        value = _first_dimension_value(session, query, query.dimension_names[0])
        return Slice(query.dimension_names[0], value)
    if kind == "dice":
        first = _dimension_values(session, query, query.dimension_names[0], 5)
        second = _dimension_values(session, query, query.dimension_names[1], 5)
        return Dice({query.dimension_names[0]: first, query.dimension_names[1]: second})
    if kind == "drill-out":
        return DrillOut(query.dimension_names[-1])
    if kind == "drill-in":
        return DrillIn("da")
    raise ValueError(f"unknown operation kind {kind!r}")


# ---------------------------------------------------------------------------
# EXP-5: DICE selectivity sweep (Figure D)
# ---------------------------------------------------------------------------


def experiment_dice_selectivity(scale: str = "small") -> ResultTable:
    """EXP-5: DICE cost as the retained fraction of dimension values varies."""
    parameters = _scale(scale)
    config = GenericConfig(facts=int(parameters["facts"]), dimensions=2, dimension_cardinality=50)
    dataset = generic_dataset(config)
    query = dataset.query
    session = OLAPSession(dataset.instance, dataset.schema)
    session.execute(query)
    dimension = query.dimension_names[0]
    all_values = sorted(
        Cube(session.materialized(query).answer, query).dimension_values(dimension), key=repr
    )
    table = ResultTable(
        ["selectivity", "values kept", "rewrite (ms)", "scratch (ms)", "speedup", "cells", "equal"],
        title="EXP-5 — DICE selectivity sweep",
    )
    for fraction in (0.05, 0.1, 0.25, 0.5, 0.75, 1.0):
        keep = max(1, int(len(all_values) * fraction))
        operation = Dice({dimension: all_values[:keep]})
        comparison = session.compare_strategies(query, operation)
        table.add_row(
            f"{fraction:.2f}",
            keep,
            comparison["rewrite_seconds"] * 1000,
            comparison["scratch_seconds"] * 1000,
            comparison["speedup"],
            len(comparison["rewrite_cube"]),
            comparison["equal"],
        )
    return table


# ---------------------------------------------------------------------------
# EXP-6: multi-valuedness fan-out (Figure E) + naive-ans error demonstration
# ---------------------------------------------------------------------------


def experiment_multivalue_fanout(scale: str = "small") -> ResultTable:
    """EXP-6: drill-out under increasing dimension fan-out.

    Reports both the performance of Algorithm 1 and the *correctness gap* of
    the naive ans(Q)-based re-aggregation (Example 5): the number of cube
    cells whose naive value differs from the correct one.
    """
    parameters = _scale(scale)
    table = ResultTable(
        ["fan-out", "pres rows", "rewrite (ms)", "scratch (ms)", "speedup", "naive wrong cells", "equal"],
        title="EXP-6 — DRILL-OUT vs. dimension multi-valuedness",
    )
    for fanout in (1.0, 1.25, 1.5, 2.0, 3.0):
        config = GenericConfig(
            facts=int(parameters["facts"]),
            dimensions=2,
            values_per_dimension=fanout,
            measures_per_fact=1.5,
            with_detail=False,
        )
        dataset = generic_dataset(config)
        query = generic_query(config, aggregate="sum")
        session = OLAPSession(dataset.instance, dataset.schema)
        session.execute(query)
        operation = DrillOut(query.dimension_names[-1])
        comparison = session.compare_strategies(query, operation)

        transformed = operation.apply(query)
        naive = drill_out_from_answer_naive(session.materialized(query).answer, transformed)
        correct_cube = comparison["scratch_cube"]
        naive_cube = Cube(naive, transformed)
        wrong = _differing_cells(naive_cube, correct_cube)
        table.add_row(
            f"{fanout:.2f}",
            len(session.materialized(query).partial),
            comparison["rewrite_seconds"] * 1000,
            comparison["scratch_seconds"] * 1000,
            comparison["speedup"],
            wrong,
            comparison["equal"],
        )
    return table


def _differing_cells(left: Cube, right: Cube) -> int:
    from repro.algebra.expressions import comparable

    left_cells = {tuple(comparable(v) for v in key): comparable(value) for key, value in left}
    right_cells = {tuple(comparable(v) for v in key): comparable(value) for key, value in right}
    keys = set(left_cells) | set(right_cells)
    differing = 0
    for key in keys:
        if key not in left_cells or key not in right_cells:
            differing += 1
            continue
        a, b = left_cells[key], right_cells[key]
        if isinstance(a, (int, float)) and isinstance(b, (int, float)):
            if abs(float(a) - float(b)) > 1e-9:
                differing += 1
        elif a != b:
            differing += 1
    return differing


# ---------------------------------------------------------------------------
# EXP-7: dimensionality (Table 2)
# ---------------------------------------------------------------------------


def experiment_dimensionality(scale: str = "small") -> ResultTable:
    """EXP-7: drill-out / drill-in cost as the number of dimensions grows."""
    parameters = _scale(scale)
    table = ResultTable(
        ["dimensions", "operation", "rewrite (ms)", "scratch (ms)", "speedup", "equal"],
        title="EXP-7 — varying the number of classifier dimensions",
    )
    for dimensions in (2, 3, 4, 5):
        config = GenericConfig(
            facts=int(parameters["facts"]),
            dimensions=dimensions,
            values_per_dimension=1.3,
            with_detail=True,
        )
        dataset = generic_dataset(config)
        session = OLAPSession(dataset.instance, dataset.schema)

        query = generic_query(config, aggregate="count")
        session.execute(query)
        comparison = session.compare_strategies(query, DrillOut(query.dimension_names[-1]))
        table.add_row(
            dimensions, "DRILL-OUT",
            comparison["rewrite_seconds"] * 1000, comparison["scratch_seconds"] * 1000,
            comparison["speedup"], comparison["equal"],
        )

        detail_query = generic_query(
            config, aggregate="count", include_detail_in_classifier=True, name="Qd"
        )
        session.execute(detail_query)
        comparison = session.compare_strategies(detail_query, DrillIn("da"))
        table.add_row(
            dimensions, "DRILL-IN",
            comparison["rewrite_seconds"] * 1000, comparison["scratch_seconds"] * 1000,
            comparison["speedup"], comparison["equal"],
        )
    return table


# ---------------------------------------------------------------------------
# EXP-8: pres(Q) storage ablation
# ---------------------------------------------------------------------------


def experiment_pres_storage(scale: str = "small") -> ResultTable:
    """EXP-8: size of the materialized inputs relative to the instance."""
    parameters = _scale(scale)
    sweep: Sequence[int] = parameters["sweep"]  # type: ignore[assignment]
    table = ResultTable(
        ["facts", "instance triples", "ans cells", "pres rows", "int rows", "pres/instance"],
        title="EXP-8 — materialized-input sizes (ans, pres, int) vs. instance size",
    )
    for facts in sweep:
        config = GenericConfig(facts=int(facts), dimensions=3, values_per_dimension=1.4)
        dataset = generic_dataset(config)
        evaluator = AnalyticalQueryEvaluator(dataset.instance)
        query = dataset.query
        partial = evaluator.partial_result(query)
        answer = evaluator.answer_from_partial(query, partial)
        intermediary = evaluator.intermediary_result(query)
        ratio = len(partial) / max(len(dataset.instance), 1)
        table.add_row(facts, len(dataset.instance), len(answer), len(partial), len(intermediary), ratio)
    return table


# ---------------------------------------------------------------------------
# EXP-9: aggregation-function ablation
# ---------------------------------------------------------------------------


def experiment_aggregates(scale: str = "small") -> ResultTable:
    """EXP-9: effect of the aggregation function on drill-out rewriting."""
    parameters = _scale(scale)
    dataset = blogger_dataset(BloggerConfig(bloggers=int(parameters["bloggers"])))
    table = ResultTable(
        ["aggregate", "distributive", "rewrite (ms)", "scratch (ms)", "speedup", "equal"],
        title="EXP-9 — DRILL-OUT under different aggregation functions",
    )
    for aggregate in ("count", "sum", "avg", "min", "max"):
        query = words_per_blogger_query(dataset.schema, name=f"Q_{aggregate}")
        query = AnalyticalQuery(
            query.classifier, query.measure, aggregate, schema=dataset.schema, name=f"Q_{aggregate}"
        )
        session = OLAPSession(dataset.instance, dataset.schema)
        session.execute(query)
        comparison = session.compare_strategies(query, DrillOut("dage"))
        table.add_row(
            aggregate,
            query.aggregate.distributive,
            comparison["rewrite_seconds"] * 1000,
            comparison["scratch_seconds"] * 1000,
            comparison["speedup"],
            comparison["equal"],
        )
    return table


# ---------------------------------------------------------------------------
# PLANNER — replayed multi-operation sessions (the scenario the paper measures)
# ---------------------------------------------------------------------------


def blogger_session_replay(dataset) -> Tuple[AnalyticalQuery, List[Tuple[AnalyticalQuery, OLAPOperation]]]:
    """A 12-operation dashboard-style chain on the blogger cube.

    Mixes SLICE / DICE / DRILL-OUT from the root and from derived queries,
    with half the operations repeated later in the chain — the refresh
    pattern a served dashboard produces, which is what makes a bounded
    result cache pay off.  Origins are query *objects* (built by applying
    the operations up front), so replays are unambiguous for every strategy.
    """
    query = sites_per_blogger_query(dataset.schema)
    probe = Cube(AnalyticalQueryEvaluator(dataset.instance).answer(query), query)
    ages = sorted(probe.dimension_values("dage"), key=repr)
    cities = sorted(probe.dimension_values("dcity"), key=repr)
    slice_a = Slice("dage", ages[0])
    slice_b = Slice("dage", ages[min(1, len(ages) - 1)])
    dice_c = Dice({"dcity": cities[:3]})
    dice_b = Dice({"dcity": cities[:2]})
    drill = DrillOut("dage")
    q_slice = slice_a.apply(query)
    q_dice = dice_c.apply(query)
    steps = [
        (query, slice_a),
        (query, dice_c),
        (q_dice, drill),
        (query, drill),
        (query, slice_a),  # repeat -> cache hit under the planner
        (query, dice_c),  # repeat
        (q_slice, dice_b),
        (query, drill),  # repeat
        (q_dice, drill),  # repeat
        (query, slice_b),
        (query, slice_b),  # repeat
        (q_slice, dice_b),  # repeat
    ]
    return query, steps


def video_session_replay(dataset) -> Tuple[AnalyticalQuery, List[Tuple[AnalyticalQuery, OLAPOperation]]]:
    """A 10-operation drill-navigation chain on the video cube (Example 6)."""
    query = views_per_url_query(dataset.schema)
    evaluator = AnalyticalQueryEvaluator(dataset.instance)
    probe = Cube(evaluator.answer(query), query)
    urls = sorted(probe.dimension_values("d2"), key=repr)
    drill_in = DrillIn("d3")
    q_in = drill_in.apply(query)
    drilled_probe = Cube(evaluator.answer(q_in), q_in)
    browsers = sorted(drilled_probe.dimension_values("d3"), key=repr)
    slice_u = Slice("d2", urls[0])
    dice_b = Dice({"d3": browsers[: max(1, len(browsers) // 2)]})
    dice_u = Dice({"d2": urls[:3]})
    drill_back = DrillOut("d3")
    steps = [
        (query, drill_in),
        (query, slice_u),
        (q_in, dice_b),
        (query, drill_in),  # repeat
        (query, slice_u),  # repeat
        (q_in, drill_back),
        (q_in, dice_b),  # repeat
        (query, dice_u),
        (query, dice_u),  # repeat
        (q_in, drill_back),  # repeat
    ]
    return query, steps


def replay_session(
    instance,
    schema,
    root_query: AnalyticalQuery,
    steps: Sequence[Tuple[AnalyticalQuery, OLAPOperation]],
    strategy: str,
    cache_capacity: Optional[int] = None,
    cache_dir: Optional[str] = None,
) -> Tuple[float, List[Cube], OLAPSession]:
    """Replay one operation session with a fixed answering strategy.

    Returns the wall-clock seconds for the whole replay (execute + every
    transform), the per-step cubes (for equality checks) and the finished
    session (for cache statistics).
    """
    kwargs = {}
    if cache_capacity is not None:
        kwargs["cache_capacity"] = cache_capacity
    if cache_dir is not None:
        kwargs["cache_dir"] = cache_dir
    session = OLAPSession(instance, schema, **kwargs)
    cubes: List[Cube] = []
    started = time.perf_counter()
    session.execute(root_query)
    for origin, operation in steps:
        cubes.append(session.transform(origin, operation, strategy=strategy))
    elapsed = time.perf_counter() - started
    return elapsed, cubes, session


def experiment_planner_sessions(scale: str = "small", repeats: Optional[int] = None) -> ResultTable:
    """PLANNER — replayed sessions: cost-based planning vs. fixed strategies.

    Replays the blogger and video operation chains three times each — with
    the planner (``strategy="plan"``), always from scratch
    (``strategy="scratch"``) and always reusing via the paper's rewritings
    (``strategy="rewrite"``) — and reports total session time, speedup
    relative to always-scratch, cache hits, and whether every step's cube
    matched the from-scratch answer cell-for-cell.
    """
    parameters = _scale(scale)
    repeats = repeats or int(parameters["repeats"])
    table = ResultTable(
        ["session", "ops", "strategy", "time (ms)", "speedup vs scratch", "cache hits", "all equal"],
        title="PLANNER — replayed OLAP sessions: plan vs. always-scratch vs. always-reuse",
    )
    workloads = [
        (
            "blogger/12-op dashboard",
            blogger_dataset(BloggerConfig(bloggers=int(parameters["bloggers"]))),
            blogger_session_replay,
        ),
        (
            "video/10-op drill chain",
            video_dataset(VideoConfig(videos=int(parameters["videos"]))),
            video_session_replay,
        ),
    ]
    for label, dataset, build in workloads:
        root_query, steps = build(dataset)
        reference_evaluator = AnalyticalQueryEvaluator(dataset.instance)
        # The three strategies replay the same queries, so each reference
        # cube is evaluated once and shared across the equality checks.
        reference_cubes: Dict[str, Cube] = {}

        def reference(cube: Cube) -> Cube:
            key = canonical_query_key(cube.query)
            if key not in reference_cubes:
                reference_cubes[key] = Cube(reference_evaluator.answer(cube.query), cube.query)
            return reference_cubes[key]

        timings: Dict[str, float] = {}
        hits: Dict[str, int] = {}
        equals: Dict[str, bool] = {}
        for strategy in ("plan", "scratch", "rewrite"):
            best = float("inf")
            for _ in range(repeats):
                elapsed, cubes, session = replay_session(
                    dataset.instance, dataset.schema, root_query, steps, strategy
                )
                best = min(best, elapsed)
            timings[strategy] = best
            hits[strategy] = session.cache.stats.hits
            equals[strategy] = all(cube.same_cells(reference(cube)) for cube in cubes)
        scratch_time = timings["scratch"]
        for strategy in ("plan", "scratch", "rewrite"):
            table.add_row(
                label,
                len(steps),
                strategy,
                timings[strategy] * 1000,
                scratch_time / timings[strategy] if timings[strategy] > 0 else float("inf"),
                hits[strategy],
                equals[strategy],
            )
    return table


# ---------------------------------------------------------------------------
# ADVISOR — profile → recommend → replay with a fitted cost model
# ---------------------------------------------------------------------------


def replay_on_session(
    session: OLAPSession,
    root_query: AnalyticalQuery,
    steps: Sequence[Tuple[AnalyticalQuery, OLAPOperation]],
) -> Tuple[float, List[Cube], int]:
    """Replay the chain on an *existing* session with the planner.

    Unlike :func:`replay_session` the session is supplied (possibly
    warm-started by advisor recommendations), so the caller controls its
    cost model and cache contents.  Returns the replay wall-clock, the
    per-step cubes, and the total rows touched — the sum of the replay
    records' ``input_rows``, the same unit the planner's estimates use.
    """
    cubes: List[Cube] = []
    start_index = len(session.history)
    started = time.perf_counter()
    session.execute(root_query)
    for origin, operation in steps:
        cubes.append(session.transform(origin, operation, strategy="plan"))
    elapsed = time.perf_counter() - started
    rows_touched = sum(record.input_rows for record in session.history[start_index:])
    return elapsed, cubes, rows_touched


def advisor_session_comparison(
    dataset, build: Callable, repeats: int = 3
) -> Dict[str, object]:
    """Profile a replayed workload, advise, and replay advised vs. static.

    The profile pass replays the workload once with the static planner and
    mines its history with the :class:`~repro.olap.advisor.WorkloadAdvisor`.
    The comparison then replays the same chain in (a) a cold session with
    the static cost model — the PR-2 planner — and (b) a fresh session
    constructed with the report's fitted cost model and warm-started via
    :meth:`~repro.olap.session.OLAPSession.apply_recommendations` (the
    warm-up itself is not timed: it models session-start pre-materialization
    amortized over dashboard replays).  Every step of every replay is
    checked cell-for-cell against from-scratch evaluation.
    """
    root_query, steps = build(dataset)
    reference_evaluator = AnalyticalQueryEvaluator(dataset.instance)
    reference_cubes: Dict[str, Cube] = {}

    def check(cubes: List[Cube]) -> bool:
        for cube in cubes:
            key = canonical_query_key(cube.query)
            if key not in reference_cubes:
                reference_cubes[key] = Cube(
                    reference_evaluator.answer(cube.query), cube.query
                )
            if not cube.same_cells(reference_cubes[key]):
                return False
        return True

    # Profile pass: static planner, cold cache.
    profile_session = OLAPSession(dataset.instance, dataset.schema)
    _, profile_cubes, _ = replay_on_session(profile_session, root_query, steps)
    report = profile_session.advise()

    results: Dict[str, object] = {
        "ops": len(steps) + 1,
        "report": report,
        "recommendations": len(report.recommendations),
        "profile_equal": check(profile_cubes),
    }
    static_best = float("inf")
    advised_best = float("inf")
    for _ in range(max(1, repeats)):
        static_session = OLAPSession(dataset.instance, dataset.schema)
        elapsed, cubes, rows = replay_on_session(static_session, root_query, steps)
        static_best = min(static_best, elapsed)
        results["static_rows"] = rows
        results["static_hits"] = static_session.cache.stats.hits
        results["static_equal"] = check(cubes)

        advised_session = OLAPSession(
            dataset.instance, dataset.schema, cost_model=report.cost_model
        )
        advised_session.apply_recommendations(report)
        elapsed, cubes, rows = replay_on_session(advised_session, root_query, steps)
        advised_best = min(advised_best, elapsed)
        results["advised_rows"] = rows
        results["advised_hits"] = advised_session.cache.stats.hits
        results["advised_equal"] = check(cubes)
    results["static_seconds"] = static_best
    results["advised_seconds"] = advised_best
    return results


def experiment_advisor_sessions(
    scale: str = "small", repeats: Optional[int] = None
) -> ResultTable:
    """ADVISOR — replayed sessions: advised warm start vs. the static planner.

    Replays the blogger and video operation chains under the PR-2 static
    planner (cold cache, hand-set cost constants) and under the advisor
    loop (cache warm-started from the profile pass's recommendations,
    planner priced by the fitted cost model), reporting total session
    time, total rows touched, cache hits and per-step cube equality.
    """
    parameters = _scale(scale)
    repeats = repeats or int(parameters["repeats"])
    table = ResultTable(
        [
            "session",
            "ops",
            "variant",
            "time (ms)",
            "rows touched",
            "cache hits",
            "speedup vs static",
            "all equal",
        ],
        title="ADVISOR — replayed OLAP sessions: advised warm start vs. static planner",
    )
    workloads = [
        (
            "blogger/12-op dashboard",
            blogger_dataset(BloggerConfig(bloggers=int(parameters["bloggers"]))),
            blogger_session_replay,
        ),
        (
            "video/10-op drill chain",
            video_dataset(VideoConfig(videos=int(parameters["videos"]))),
            video_session_replay,
        ),
    ]
    for label, dataset, build in workloads:
        results = advisor_session_comparison(dataset, build, repeats=repeats)
        static_seconds = results["static_seconds"]
        advised_seconds = results["advised_seconds"]
        table.add_row(
            label,
            results["ops"],
            "static planner (cold)",
            static_seconds * 1000,
            results["static_rows"],
            results["static_hits"],
            1.0,
            results["static_equal"],
        )
        table.add_row(
            label,
            results["ops"],
            "advised (warm + fitted)",
            advised_seconds * 1000,
            results["advised_rows"],
            results["advised_hits"],
            static_seconds / advised_seconds if advised_seconds > 0 else float("inf"),
            results["advised_equal"],
        )
    return table


# ---------------------------------------------------------------------------
# REFRESH — incremental maintenance vs. recompute under instance updates
# ---------------------------------------------------------------------------


def blogger_update_batch(instance, size: int, seed: int = 0) -> int:
    """Apply a deterministic ~``size``-triple update batch to a blogger instance.

    Roughly half the batch removes existing triples (sampled reproducibly);
    the other half adds fresh bloggers with one post each (classifier *and*
    measure triples, so cached cubes genuinely change).  Returns the number
    of effective mutations.
    """
    import random

    from repro.rdf.namespaces import EX, RDF
    from repro.rdf.terms import Literal
    from repro.rdf.triples import Triple

    rdf_type = RDF.term("type")
    rng = random.Random(seed)
    removals = size // 2
    mutations = 0
    if removals:
        triples = sorted(instance, key=repr)
        for triple in rng.sample(triples, min(removals, len(triples))):
            mutations += instance.remove(triple)
    tag = 0
    while mutations < size:
        user = EX.term(f"upd{seed}_u{tag}")
        post = EX.term(f"upd{seed}_p{tag}")
        batch = (
            Triple(user, rdf_type, EX.Blogger),
            Triple(user, EX.hasAge, Literal(20 + tag % 30)),
            Triple(user, EX.livesIn, EX.term(f"city_{tag % 5}")),
            Triple(post, rdf_type, EX.BlogPost),
            Triple(user, EX.wrotePost, post),
            Triple(post, EX.postedOn, EX.term(f"site_{tag % 7}")),
            Triple(post, EX.hasWordCount, Literal(50 + 13 * tag)),
        )
        for triple in batch:
            if mutations >= size:
                break
            mutations += instance.add(triple)
        tag += 1
    return mutations


def video_update_batch(instance, size: int, seed: int = 0) -> int:
    """The video-instance counterpart of :func:`blogger_update_batch`."""
    import random

    from repro.rdf.namespaces import EX, RDF
    from repro.rdf.terms import Literal
    from repro.rdf.triples import Triple

    rdf_type = RDF.term("type")
    rng = random.Random(seed)
    removals = size // 2
    mutations = 0
    if removals:
        triples = sorted(instance, key=repr)
        for triple in rng.sample(triples, min(removals, len(triples))):
            mutations += instance.remove(triple)
    websites = sorted({t.subject for t in instance if t.predicate == EX.hasUrl}, key=repr)
    tag = 0
    while mutations < size:
        video = EX.term(f"updv{seed}_{tag}")
        batch = [
            Triple(video, rdf_type, EX.Video),
            Triple(video, EX.viewNum, Literal(10 + 7 * tag)),
        ]
        if websites:
            batch.append(Triple(video, EX.postedOn, websites[tag % len(websites)]))
        for triple in batch:
            if mutations >= size:
                break
            mutations += instance.add(triple)
        tag += 1
    return mutations


def replay_after_update(
    instance,
    schema,
    root_query: AnalyticalQuery,
    steps: Sequence[Tuple[AnalyticalQuery, OLAPOperation]],
    update: Callable,
    policy: str,
    engine: Optional[str] = None,
) -> Tuple[float, List[Cube], OLAPSession]:
    """Warm a planner session, apply an update batch, re-answer everything.

    Only the post-update re-answering phase is timed — that is the serving
    work the policies disagree on:

    * ``refresh`` — the warmed session keeps going with the cost-based
      planner; stale cached results are delta-patched (or rewritten from
      patched origins) instead of recomputed;
    * ``replan`` — a cold planner session on the updated instance: what
      invalidation-only caching plus the PR-2 planner must do (recompute
      the root once, then reuse its own fresh results);
    * ``recompute`` — a cold session answering every operation from scratch
      on the updated instance (no reuse at all).

    ``engine`` pins the sessions' execution engine (None = auto): the
    refresh-vs-recompute *margin* is engine-relative — vectorized columnar
    recomputation compresses the gap row-level patching enjoys over the
    row engine — so benchmarks state which engine a claim is about.
    """
    warm = OLAPSession(instance, schema, engine=engine)
    warm.execute(root_query)
    for origin, operation in steps:
        warm.transform(origin, operation, strategy="plan")

    update(instance)

    cubes: List[Cube] = []
    if policy == "refresh":
        started = time.perf_counter()
        cubes.append(warm.execute(root_query))
        for origin, operation in steps:
            cubes.append(warm.transform(origin, operation, strategy="plan"))
        elapsed = time.perf_counter() - started
        return elapsed, cubes, warm
    if policy not in ("replan", "recompute"):
        raise ValueError(
            f"unknown policy {policy!r}; expected refresh, replan or recompute"
        )
    strategy = "plan" if policy == "replan" else "scratch"
    cold = OLAPSession(instance, schema, engine=engine)
    started = time.perf_counter()
    cubes.append(cold.execute(root_query))
    for origin, operation in steps:
        cubes.append(cold.transform(origin, operation, strategy=strategy))
    elapsed = time.perf_counter() - started
    return elapsed, cubes, cold


def experiment_incremental_refresh(
    scale: str = "small", repeats: Optional[int] = None
) -> ResultTable:
    """REFRESH — delta-patching vs. from-scratch recompute across batch sizes.

    For each workload (the 12-op blogger dashboard, the 10-op video drill
    chain) and each update-batch size (as a fraction of the instance's
    triples), replays the session once to warm the cache, applies the batch,
    and re-answers every query under three policies: delta-patching
    (``refresh``), a cold planner session (``replan`` — invalidate
    everything but keep PR-2's reuse machinery) and per-operation
    from-scratch recomputation (``recompute``).  The claim (shape): refresh
    beats per-operation recomputation by a wide margin on small batches and
    the advantage shrinks as the batch approaches the instance size — which
    is why the planner prices the choice per operation instead of
    hard-coding it.  Against cold replanning the fight is closer (replan
    recomputes the root once and rewrites the rest); the honest comparison
    is reported side by side.  Every trio of replays is checked
    cell-for-cell against each other.
    """
    parameters = _scale(scale)
    repeats = repeats or int(parameters["repeats"])
    table = ResultTable(
        [
            "session",
            "batch fraction",
            "batch triples",
            "refresh (ms)",
            "replan (ms)",
            "recompute (ms)",
            "speedup vs recompute",
            "refreshes",
            "all equal",
        ],
        title="REFRESH — incremental maintenance vs. replan vs. recompute after updates",
    )
    workloads = [
        (
            "blogger/12-op dashboard",
            blogger_dataset(BloggerConfig(bloggers=int(parameters["bloggers"]))),
            blogger_session_replay,
            blogger_update_batch,
        ),
        (
            "video/10-op drill chain",
            video_dataset(VideoConfig(videos=int(parameters["videos"]))),
            video_session_replay,
            video_update_batch,
        ),
    ]
    for label, dataset, build, batch in workloads:
        root_query, steps = build(dataset)
        for fraction in (0.005, 0.01, 0.05, 0.25):
            size = max(1, int(len(dataset.instance) * fraction))
            update = lambda instance, size=size: batch(instance, size, seed=17)
            timings: Dict[str, float] = {}
            cubes_by_policy: Dict[str, List[Cube]] = {}
            refreshes = 0
            for policy in ("refresh", "replan", "recompute"):
                best = float("inf")
                for _ in range(repeats):
                    instance = dataset.instance.copy()
                    elapsed, cubes, session = replay_after_update(
                        instance, dataset.schema, root_query, steps, update, policy
                    )
                    best = min(best, elapsed)
                timings[policy] = best
                cubes_by_policy[policy] = cubes
                if policy == "refresh":
                    refreshes = session.cache.stats.refreshes
            reference = cubes_by_policy["recompute"]
            equal = all(
                all(ours.same_cells(theirs) for ours, theirs in zip(cubes, reference))
                for cubes in (cubes_by_policy["refresh"], cubes_by_policy["replan"])
            )
            table.add_row(
                label,
                f"{fraction:.3f}",
                size,
                timings["refresh"] * 1000,
                timings["replan"] * 1000,
                timings["recompute"] * 1000,
                timings["recompute"] / timings["refresh"]
                if timings["refresh"] > 0
                else float("inf"),
                refreshes,
                equal,
            )
    return table


# ---------------------------------------------------------------------------
# PARALLEL — shard-partitioned evaluation vs. the serial engine
# ---------------------------------------------------------------------------


def experiment_parallel_scaling(scale: str = "small", repeats: Optional[int] = None) -> ResultTable:
    """PARALLEL — serial vs. 2/4-worker answering on the slice-dice workload.

    For each instance size of the scaling sweep, answers the generic count
    query from scratch with the serial id-space engine and with the
    partitioned executor at 2 and 4 workers (process backend where the
    query pickles, thread fallback otherwise; ``shard_count = 2 × workers``
    smooths shard imbalance).  Every parallel cube is checked cell-for-cell
    against the serial answer.  The speedup column is relative to serial;
    genuine wall-clock wins need real cores (the table title records how
    many this host has), while the totals also reflect the sharding's
    smaller per-shard join and γ structures.
    """
    import os

    from repro.olap.parallel import ParallelExecutor

    parameters = _scale(scale)
    repeats = repeats or int(parameters["repeats"])
    sweep: Sequence[int] = parameters["sweep"]  # type: ignore[assignment]
    cpus = os.cpu_count() or 1
    table = ResultTable(
        ["facts", "instance triples", "engine", "time (ms)", "speedup vs serial", "cells", "equal"],
        title=f"PARALLEL — partitioned evaluation vs. serial from-scratch ({cpus} CPUs)",
    )
    for facts in sweep:
        config = GenericConfig(
            facts=int(facts), dimensions=3, values_per_dimension=1.4, measures_per_fact=2.0
        )
        dataset = generic_dataset(config)
        query = generic_query(config, aggregate="count")
        serial = AnalyticalQueryEvaluator(dataset.instance)
        serial_time = time_callable(
            "serial", lambda: serial.answer(query), repeats=repeats
        ).milliseconds()
        oracle = Cube(serial.answer(query), query)
        table.add_row(facts, len(dataset.instance), "serial", serial_time, 1.0, len(oracle), True)
        for workers in (2, 4):
            with ParallelExecutor(
                AnalyticalQueryEvaluator(dataset.instance),
                workers=workers,
                shard_count=2 * workers,
            ) as executor:
                executor.answer(query)  # warm the worker pool outside the timing
                measurement = time_callable(
                    f"workers={workers}",
                    lambda ex=executor: ex.answer(query),
                    repeats=repeats,
                )
                cube = Cube(executor.answer(query), query)
            table.add_row(
                facts,
                len(dataset.instance),
                f"parallel x{workers}",
                measurement.milliseconds(),
                serial_time / measurement.milliseconds()
                if measurement.milliseconds() > 0
                else float("inf"),
                len(cube),
                cube.same_cells(oracle),
            )
    return table


# ---------------------------------------------------------------------------
# SERVING: multi-tenant load generation against the concurrent serving layer
# ---------------------------------------------------------------------------


def _percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (NaN on empty input)."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    index = int(round(fraction * (len(ordered) - 1)))
    return ordered[max(0, min(index, len(ordered) - 1))]


def serving_fact_batch(tag: str, count: int = 2, dimensions: int = 2) -> list:
    """Triples for ``count`` fresh generic facts (the serving write payload).

    Each fact carries every classifier dimension, so the batch lands in the
    canonical cube and a publish visibly changes the answers.
    """
    from repro.rdf import RDF, Literal, Triple
    from repro.rdf.namespaces import EX

    rdf_type = RDF.term("type")
    triples = []
    for index in range(count):
        fact = EX.term(f"fact/served-{tag}-{index}")
        triples.append(Triple(fact, rdf_type, EX.term("Fact")))
        for dimension in range(dimensions):
            triples.append(
                Triple(
                    fact,
                    EX.term(f"dim{dimension}"),
                    EX.term(f"dimvalue/{dimension}/{dimension % 2}"),
                )
            )
        triples.append(Triple(fact, EX.term("measure"), Literal(5 + index)))
    return triples


def serving_load_run(
    instance,
    schema,
    query: AnalyticalQuery,
    clients: int,
    write_ratio: float = 0.0,
    requests_per_client: int = 10,
    max_concurrency: int = 4,
    max_queue_depth: int = 8,
    per_tenant_limit: int = 4,
    publish_mode: str = "auto",
    seed: int = 0,
    verify: bool = True,
    write_dimensions: int = 2,
) -> Dict[str, object]:
    """Drive :class:`~repro.serving.service.OLAPService` with concurrent clients.

    Spawns ``clients`` tenants, each issuing ``requests_per_client``
    operations: a write (an update batch through the single writer, which
    republishes the graph) with probability ``write_ratio``, a read
    otherwise.  Admission rejections are counted per type, never retried.
    With ``verify=True`` every answered cube is checked cell-for-cell
    against from-scratch evaluation over the *generation it was served
    from* — after the timed window, so the check never distorts latency —
    which makes the throughput numbers trustworthy: the service cannot
    win by serving torn or stale reads.

    Returns a dict of latency percentiles (milliseconds), throughput and
    service statistics, ready for a bench record or a
    :class:`~repro.bench.harness.ResultTable` row.
    """
    import asyncio
    import random

    from repro.errors import AdmissionError
    from repro.serving import OLAPService

    rng = random.Random(seed)
    plans = [
        [
            "write" if rng.random() < write_ratio else "read"
            for _ in range(requests_per_client)
        ]
        for _ in range(clients)
    ]

    async def drive():
        read_latencies: List[float] = []
        write_latencies: List[float] = []
        served = []
        rejections: Dict[str, int] = {}

        async with OLAPService(
            instance,
            schema,
            max_concurrency=max_concurrency,
            max_queue_depth=max_queue_depth,
            per_tenant_limit=per_tenant_limit,
            publish_mode=publish_mode,
        ) as service:

            async def client(index: int) -> None:
                tenant = f"tenant-{index}"
                for step, kind in enumerate(plans[index]):
                    started = time.perf_counter()
                    if kind == "write":
                        await service.update(
                            add=serving_fact_batch(
                                f"{index}-{step}", dimensions=write_dimensions
                            )
                        )
                        write_latencies.append(time.perf_counter() - started)
                    else:
                        try:
                            result = await service.query(tenant, query)
                        except AdmissionError as rejection:
                            name = type(rejection).__name__
                            rejections[name] = rejections.get(name, 0) + 1
                        else:
                            read_latencies.append(time.perf_counter() - started)
                            served.append(result)
                    await asyncio.sleep(0)

            wall_started = time.perf_counter()
            await asyncio.gather(*[client(index) for index in range(clients)])
            wall_seconds = time.perf_counter() - wall_started

            verified = 0
            if verify:
                oracles: Dict[int, Cube] = {}
                for result in served:
                    oracle = oracles.get(result.graph_version)
                    if oracle is None:
                        oracle = Cube(
                            AnalyticalQueryEvaluator(result.generation.graph).answer(
                                query
                            ),
                            query,
                        )
                        oracles[result.graph_version] = oracle
                    if not result.cube.same_cells(oracle):
                        raise AssertionError(
                            f"served cube for {result.tenant} diverged from "
                            f"scratch evaluation at v{result.graph_version}"
                        )
                    verified += 1

            statistics = service.stats.as_dict()
            versions_served = sorted({r.graph_version for r in served})

        operations = sum(len(plan) for plan in plans)
        return {
            "clients": clients,
            "write_ratio": write_ratio,
            "operations": operations,
            "served": len(served),
            "writes": len(write_latencies),
            "rejected": int(statistics["rejected"]),
            "rejected_queue_full": int(statistics["rejected_queue_full"]),
            "rejected_tenant_busy": int(statistics["rejected_tenant_busy"]),
            "publishes": int(statistics["publishes"]),
            "versions_served": versions_served,
            "verified": verified,
            "wall_seconds": wall_seconds,
            "throughput_ops": operations / wall_seconds if wall_seconds > 0 else float("inf"),
            "read_p50_ms": _percentile(read_latencies, 0.50) * 1000.0,
            "read_p95_ms": _percentile(read_latencies, 0.95) * 1000.0,
            "read_p99_ms": _percentile(read_latencies, 0.99) * 1000.0,
            "write_p50_ms": _percentile(write_latencies, 0.50) * 1000.0,
        }

    return asyncio.run(drive())


#: The canonical serving run table: client counts × read/write mixes.
SERVING_CLIENTS: Tuple[int, ...] = (1, 4, 8)
SERVING_MIXES: Tuple[Tuple[str, float], ...] = (
    ("read-only", 0.0),
    ("90/10 read-write", 0.1),
)


def experiment_serving(
    scale: str = "small", requests_per_client: Optional[int] = None
) -> ResultTable:
    """SERVING — the load-generation run table over the serving layer.

    For each (mix, client count) cell, drives a fresh service over a fresh
    copy of the generic instance and reports latency percentiles,
    throughput, typed rejections and the number of graph versions that
    answered reads.  Every answered cube is verified against scratch
    evaluation at its snapshot version inside the harness.
    """
    parameters = _scale(scale)
    requests = requests_per_client or max(6, int(parameters["repeats"]) * 3)
    dataset = generic_dataset(GenericConfig(facts=int(parameters["facts"]), dimensions=2))
    table = ResultTable(
        [
            "mix",
            "clients",
            "served",
            "rejected",
            "publishes",
            "versions",
            "p50 (ms)",
            "p95 (ms)",
            "p99 (ms)",
            "throughput (op/s)",
            "verified",
        ],
        title="SERVING — multi-tenant latency/throughput under concurrent load",
    )
    for mix_label, write_ratio in SERVING_MIXES:
        for clients in SERVING_CLIENTS:
            run = serving_load_run(
                dataset.instance.copy(),
                dataset.schema,
                dataset.query,
                clients=clients,
                write_ratio=write_ratio,
                requests_per_client=requests,
                seed=clients,
            )
            table.add_row(
                mix_label,
                clients,
                run["served"],
                run["rejected"],
                run["publishes"],
                len(run["versions_served"]),
                round(run["read_p50_ms"], 3),
                round(run["read_p95_ms"], 3),
                round(run["read_p99_ms"], 3),
                round(run["throughput_ops"], 1),
                run["verified"] == run["served"],
            )
    return table


# ---------------------------------------------------------------------------
# INGEST: streaming ingestion under a mixed read/write stream
# ---------------------------------------------------------------------------


def ingest_mutation_stream(
    operations: int,
    write_ratio: float = 0.1,
    seed: int = 0,
    dimensions: int = 2,
    remove_fraction: float = 0.25,
) -> list:
    """A mixed read/write operation stream for the ingestion benchmark.

    Returns ``operations`` entries, each ``("read", None)``,
    ``("add", [triples])`` (one fresh generic fact) or
    ``("remove", [triples])`` (full retraction of a fact added earlier in
    the stream — so coalescing and the delete path are both exercised).
    The stream is deterministic in ``seed``.
    """
    import random

    rng = random.Random(seed)
    stream: list = []
    added_facts: List[list] = []
    for index in range(operations):
        if rng.random() >= write_ratio:
            stream.append(("read", None))
            continue
        if added_facts and rng.random() < remove_fraction:
            victim = added_facts.pop(rng.randrange(len(added_facts)))
            stream.append(("remove", victim))
        else:
            fact = serving_fact_batch(f"stream-{seed}-{index}", count=1, dimensions=dimensions)
            added_facts.append(fact)
            stream.append(("add", fact))
    return stream


def ingest_load_run(
    instance,
    schema,
    query: AnalyticalQuery,
    policy: Optional[str] = "auto",
    operations: int = 200,
    write_ratio: float = 0.1,
    batch_size: int = 8,
    seed: int = 0,
    verify: bool = True,
    dimensions: int = 2,
) -> Dict[str, object]:
    """Drive a session over a live graph fed by a :class:`StreamIngestor`.

    One loop interleaves reads (``session.execute``, timed individually)
    with writes (mutations submitted to the ingestor, which cuts
    micro-batches at its size threshold and runs the refresh scheduler
    after each one).  With ``verify=True`` every served cube is checked
    cell-for-cell against from-scratch evaluation at the graph version it
    was served from — the oracle runs outside the timed sections and is
    memoized per version, so a read burst between two batches verifies
    once.

    Returns read latency percentiles, sustained applied-mutations/sec over
    the write path, coalescing and scheduler counters.
    """
    from repro.ingest import RefreshScheduler, StreamIngestor

    live = instance.copy()
    session = OLAPSession(live, schema)
    scheduler = None if policy is None else RefreshScheduler([session], policy=policy)
    ingestor = StreamIngestor(
        live, batch_size=batch_size, max_batch_age=1000.0, scheduler=scheduler
    )
    stream = ingest_mutation_stream(
        operations, write_ratio=write_ratio, seed=seed, dimensions=dimensions
    )
    session.execute(query)  # warm the cache so the scheduler has a target

    read_latencies: List[float] = []
    write_seconds = 0.0
    verified = 0
    oracles: Dict[int, Cube] = {}

    def check(cube, version: int) -> None:
        nonlocal verified
        if not verify:
            return
        oracle = oracles.get(version)
        if oracle is None:
            oracle = Cube(AnalyticalQueryEvaluator(live).answer(query), query)
            oracles[version] = oracle
        if not cube.same_cells(oracle):
            raise AssertionError(
                f"served cube diverged from scratch evaluation at v{version} "
                f"(policy {policy!r}, batch_size {batch_size})"
            )
        verified += 1

    wall_started = time.perf_counter()
    for kind, triples in stream:
        if kind == "read":
            started = time.perf_counter()
            cube = session.execute(query)
            read_latencies.append(time.perf_counter() - started)
            check(cube, live.version)
        else:
            started = time.perf_counter()
            if kind == "add":
                ingestor.ingest(add=triples)
            else:
                ingestor.ingest(remove=triples)
            ingestor.pump()
            write_seconds += time.perf_counter() - started
    started = time.perf_counter()
    ingestor.drain()
    write_seconds += time.perf_counter() - started
    wall_seconds = time.perf_counter() - wall_started

    cube = session.execute(query)
    check(cube, live.version)
    session.close()

    applied = ingestor.stats.applied_adds + ingestor.stats.applied_removes
    scheduler_stats = scheduler.stats.as_dict() if scheduler is not None else {}
    return {
        "policy": policy or "none",
        "operations": len(stream),
        "reads": len(read_latencies),
        "writes": sum(1 for kind, _ in stream if kind != "read"),
        "batches": ingestor.stats.batches,
        "submitted": ingestor.stats.submitted,
        "applied": applied,
        "coalesced": ingestor.stats.coalesced,
        "verified": verified,
        "wall_seconds": wall_seconds,
        "write_seconds": write_seconds,
        "updates_per_s": applied / write_seconds if write_seconds > 0 else float("inf"),
        "read_p50_ms": _percentile(read_latencies, 0.50) * 1000.0,
        "read_p95_ms": _percentile(read_latencies, 0.95) * 1000.0,
        "read_p99_ms": _percentile(read_latencies, 0.99) * 1000.0,
        "eager_refreshes": int(scheduler_stats.get("eager_refreshes", 0)),
        "lazy_marks": int(scheduler_stats.get("lazy_marks", 0)),
        "invalidations": int(scheduler_stats.get("invalidations", 0)),
        "cache_refreshes": session.cache.stats.refreshes,
        "lazy_refreshes": session.cache.stats.lazy_refreshes,
    }


#: The canonical ingestion run table: refresh policies under a 90/10 mix.
INGEST_POLICIES: Tuple[str, ...] = ("eager", "lazy", "auto")


def experiment_ingest(scale: str = "small", operations: Optional[int] = None) -> ResultTable:
    """INGEST — streaming ingestion under a mixed 90/10 read/write stream.

    For each refresh-scheduler policy, drives a session over a live graph
    fed through the ingestor and reports sustained applied-mutations/sec,
    read latency percentiles and the scheduler's decision mix.  Every
    served cube is verified against scratch evaluation at its version
    inside the harness.
    """
    parameters = _scale(scale)
    count = operations or max(120, int(parameters["repeats"]) * 60)
    dataset = generic_dataset(GenericConfig(facts=int(parameters["facts"]), dimensions=2))
    table = ResultTable(
        [
            "policy",
            "reads",
            "batches",
            "coalesced",
            "updates/s",
            "p50 (ms)",
            "p95 (ms)",
            "p99 (ms)",
            "eager",
            "lazy",
            "invalidated",
            "verified",
        ],
        title="INGEST — streaming ingestion with continuous refresh (90/10 mix)",
    )
    for policy in INGEST_POLICIES:
        run = ingest_load_run(
            dataset.instance,
            dataset.schema,
            dataset.query,
            policy=policy,
            operations=count,
            write_ratio=0.1,
            seed=7,
        )
        table.add_row(
            policy,
            run["reads"],
            run["batches"],
            run["coalesced"],
            round(run["updates_per_s"], 1),
            round(run["read_p50_ms"], 3),
            round(run["read_p95_ms"], 3),
            round(run["read_p99_ms"], 3),
            run["eager_refreshes"],
            run["lazy_marks"],
            run["invalidations"],
            run["verified"] == run["reads"] + 1,
        )
    return table


def run_all_experiments(scale: str = "small") -> List[ResultTable]:
    """Run every experiment at the given scale and return their tables."""
    tables = [
        experiment_operations_table(scale),
        experiment_scaling("slice", scale),
        experiment_scaling("dice", scale),
        experiment_scaling("drill-out", scale),
        experiment_scaling("drill-in", scale),
        experiment_dice_selectivity(scale),
        experiment_multivalue_fanout(scale),
        experiment_dimensionality(scale),
        experiment_pres_storage(scale),
        experiment_aggregates(scale),
        experiment_planner_sessions(scale),
        experiment_advisor_sessions(scale),
        experiment_incremental_refresh(scale),
        experiment_parallel_scaling(scale),
        experiment_serving(scale),
        experiment_ingest(scale),
    ]
    return tables
