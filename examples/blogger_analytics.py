#!/usr/bin/env python3
"""The paper's running example at scale: blogger analytics with OLAP rewriting.

Generates a synthetic blogger/blog-post RDF graph (the scenario of Figure 1),
materializes the analytical-schema instance, runs the two analytical queries
the paper uses (Example 1: number of posting sites per blogger, and Example
4: average word count), then applies every OLAP operation and compares the
rewriting path against from-scratch evaluation — printing the speedups and
checking that the cubes agree cell by cell.

Run with:  python examples/blogger_analytics.py [--bloggers N]
"""

import argparse

from repro import Dice, DrillOut, OLAPSession, Slice
from repro.datagen import BloggerConfig, blogger_dataset
from repro.datagen.blogger import sites_per_blogger_query, words_per_blogger_query


def run(bloggers: int) -> None:
    print(f"Generating the blogger scenario with {bloggers} bloggers ...")
    dataset = blogger_dataset(BloggerConfig(bloggers=bloggers, multi_city_fraction=0.25))
    print(f"  base graph:   {len(dataset.base_graph)} triples")
    print(f"  AnS instance: {len(dataset.instance)} triples")
    print()
    print(dataset.schema.describe())
    print()

    session = OLAPSession(dataset.instance, dataset.schema)

    sites_query = sites_per_blogger_query(dataset.schema)
    sites_cube = session.execute(sites_query)
    print(f"Example 1 cube — sites per blogger by (age, city): {len(sites_cube)} cells")
    print(sites_cube.to_text(max_rows=8))
    print()

    words_query = words_per_blogger_query(dataset.schema)
    words_cube = session.execute(words_query)
    print(f"Example 4 cube — average word count by (age, city): {len(words_cube)} cells")
    print(words_cube.to_text(max_rows=8))
    print()

    # Pick concrete dimension values for SLICE / DICE from the cube itself.
    ages = sorted(sites_cube.dimension_values("dage"), key=repr)
    cities = sorted(sites_cube.dimension_values("dcity"), key=repr)

    print("OLAP operations: rewriting vs. from-scratch")
    cases = [
        (sites_query, Slice("dage", ages[0])),
        (sites_query, Dice({"dage": (20, 35), "dcity": cities[:3]})),
        (sites_query, DrillOut("dage")),
        (sites_query, DrillOut(["dage", "dcity"])),
        (words_query, Dice({"dage": (25, 45)})),
        (words_query, DrillOut("dcity")),
    ]
    for query, operation in cases:
        comparison = session.compare_strategies(query, operation)
        print(
            f"  {query.name:<8} {operation.describe():<40} "
            f"rewrite {comparison['rewrite_seconds'] * 1000:8.2f} ms   "
            f"scratch {comparison['scratch_seconds'] * 1000:8.2f} ms   "
            f"speedup {comparison['speedup']:6.1f}x   "
            f"{len(comparison['rewrite_cube']):>4} cells   equal={comparison['equal']}"
        )
    print()

    # A chained navigation, every step answered by rewriting.
    print("Chained navigation (all rewritten): dice age 20-35, then drill out city")
    step1 = session.transform(sites_query, Dice({"dage": (20, 35)}), strategy="rewrite")
    step2 = session.transform(step1.query.name, DrillOut("dcity"), strategy="rewrite")
    print(step2.to_text(max_rows=8))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bloggers", type=int, default=400, help="number of bloggers to generate")
    arguments = parser.parse_args()
    run(arguments.bloggers)


if __name__ == "__main__":
    main()
