#!/usr/bin/env python3
"""A dashboard-style OLAP session over a configurable synthetic warehouse.

Simulates what an interactive analytics dashboard does behind the scenes: it
keeps one long-lived :class:`OLAPSession`, executes a handful of base cubes
once, and then serves a stream of user interactions (slice, dice, drill)
through the cost-based planner, which *rewrites the materialized results*
instead of hitting the instance again whenever that is cheaper.
At the end it prints the session history and the totals per strategy — the
operational argument for the paper's approach.

It also demonstrates the correctness trap the paper warns about: the naive
relational-style drill-out over ans(Q) is computed alongside the correct
Algorithm 1 result and the number of wrong cells is reported.

Run with:  python examples/olap_dashboard_session.py [--facts N]
"""

import argparse

from repro import Cube, Dice, DrillIn, DrillOut, OLAPSession, Slice
from repro.datagen import GenericConfig, generic_dataset
from repro.datagen.generic import generic_query
from repro.olap.rewriting import drill_out_from_answer_naive


def run(facts: int) -> None:
    config = GenericConfig(
        facts=facts,
        dimensions=3,
        dimension_cardinality=25,
        values_per_dimension=1.5,
        measures_per_fact=2.0,
        with_detail=True,
    )
    print(f"Generating a generic warehouse with {facts} facts ...")
    dataset = generic_dataset(config)
    print(f"  AnS instance: {len(dataset.instance)} triples\n")

    session = OLAPSession(dataset.instance, dataset.schema)

    # Two base cubes the "dashboard" materializes up front.
    count_cube_query = generic_query(config, aggregate="count", name="events_by_dims")
    sum_cube_query = generic_query(
        config, aggregate="sum", include_detail_in_classifier=True, name="volume_by_dims"
    )
    session.execute(count_cube_query)
    session.execute(sum_cube_query)
    print(f"Materialized base cubes: {', '.join(session.executed_queries())}\n")

    d0_values = sorted(
        Cube(session.materialized(count_cube_query).answer, count_cube_query).dimension_values("d0"),
        key=repr,
    )

    # A stream of user interactions, each answered by the planner's cheapest route.
    interactions = [
        (count_cube_query.name, Slice("d0", d0_values[0])),
        (count_cube_query.name, Dice({"d1": None})),  # placeholder replaced below
        (count_cube_query.name, DrillOut("d2")),
        ("events_by_dims_drillout", DrillOut("d1")),
        (sum_cube_query.name, DrillIn("da")),
        (sum_cube_query.name, DrillOut("d0")),
    ]
    # Fill in the dice values now that the cube is materialized.
    d1_values = sorted(
        Cube(session.materialized(count_cube_query).answer, count_cube_query).dimension_values("d1"),
        key=repr,
    )
    interactions[1] = (count_cube_query.name, Dice({"d1": d1_values[: max(1, len(d1_values) // 4)]}))

    for query_name, operation in interactions:
        cube = session.transform(query_name, operation)
        print(f"{operation.describe():<45} -> {len(cube):>5} cells "
              f"via {session.history[-1].strategy}")
    print()

    # The correctness trap: naive drill-out over ans(Q) vs. Algorithm 1.
    transformed = DrillOut("d2").apply(count_cube_query)
    naive = Cube(
        drill_out_from_answer_naive(session.materialized(count_cube_query).answer, transformed),
        transformed,
    )
    correct = session.transform(count_cube_query, DrillOut("d2"), strategy="scratch")
    wrong_cells = sum(
        1
        for key, value in naive.cells().items()
        if correct.get(*key, default=None) != value
    )
    print(
        f"Naive ans(Q)-based drill-out differs from the correct answer in "
        f"{wrong_cells} of {len(correct)} cells (multi-valued dimensions are double-counted).\n"
    )

    # Session summary.
    print("Session history")
    for index, record in enumerate(session.history, start=1):
        print(f"  {index:>2}  {record.query_name:<28} {record.operation:<40} {record.strategy:<28} "
              f"{record.seconds * 1000:8.2f} ms  {record.output_cells:>5} cells")

    rewritten = sum(1 for record in session.history if "rewrite[" in record.strategy)
    scratch = sum(1 for record in session.history if record.strategy in ("scratch", "plan[scratch]"))
    print(f"\n{rewritten} interactions answered by rewriting, {scratch} from scratch.")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--facts", type=int, default=1500, help="number of facts to generate")
    arguments = parser.parse_args()
    run(arguments.facts)


if __name__ == "__main__":
    main()
