"""Command-line interface: generate datasets, inspect cubes, drive the service.

Installed as the ``repro-olap`` console script (also runnable as
``python -m repro.cli``).  Subcommands:

``generate``
    Generate one of the synthetic scenarios (blogger / video / generic) and
    write its base graph and AnS instance as N-Triples files.

``demo``
    Run the paper's running example end to end and print the cube, the OLAP
    transformations and the rewriting-vs-scratch comparison.  With
    ``--explain`` each operation goes through the cost-based planner and
    its costed plan is printed; with ``--advise`` the session's history is
    mined into an advisor report (what to pre-materialize / pin / evict,
    plus the fitted cost model) and the advised warm-started replay is
    compared against the cold static planner; with ``--serve`` concurrent
    tenants query an :class:`~repro.serving.OLAPService` while a writer
    republishes, and every served cube is verified against scratch.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.datagen import (
    BloggerConfig,
    GenericConfig,
    VideoConfig,
    blogger_dataset,
    generic_dataset,
    video_dataset,
)
from repro.datagen.blogger import sites_per_blogger_query
from repro.olap import Dice, DrillOut, OLAPSession, Slice
from repro.rdf.ntriples import dump_ntriples

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-olap",
        description="Efficient OLAP operations for RDF analytics (paper reproduction).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate a synthetic dataset")
    generate.add_argument("scenario", choices=["blogger", "video", "generic"])
    generate.add_argument("--size", type=int, default=500, help="facts / bloggers / videos to generate")
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument("--base-output", default=None, help="N-Triples path for the base graph")
    generate.add_argument("--instance-output", default=None, help="N-Triples path for the AnS instance")

    demo = subparsers.add_parser("demo", help="run the paper's running example end to end")
    demo.add_argument("--bloggers", type=int, default=200)
    demo.add_argument(
        "--explain",
        action="store_true",
        help="route each OLAP operation through the cost-based planner and print the chosen plan",
    )
    demo.add_argument(
        "--advise",
        action="store_true",
        help=(
            "profile the demo workload, print the advisor's materialize/pin/evict "
            "report and fitted cost model, and replay advised vs. static"
        ),
    )
    demo.add_argument(
        "--serve",
        action="store_true",
        help=(
            "drive the multi-tenant serving layer: concurrent tenants querying "
            "while a writer republishes, with per-answer verification"
        ),
    )
    return parser


def _command_generate(arguments: argparse.Namespace) -> int:
    if arguments.scenario == "blogger":
        dataset = blogger_dataset(BloggerConfig(bloggers=arguments.size, seed=arguments.seed))
    elif arguments.scenario == "video":
        dataset = video_dataset(VideoConfig(videos=arguments.size, seed=arguments.seed))
    else:
        dataset = generic_dataset(GenericConfig(facts=arguments.size, seed=arguments.seed))
    base_path = arguments.base_output or f"{arguments.scenario}_base.nt"
    instance_path = arguments.instance_output or f"{arguments.scenario}_instance.nt"
    dump_ntriples(dataset.base_graph, base_path)
    dump_ntriples(dataset.instance, instance_path)
    print(f"base graph:   {len(dataset.base_graph)} triples -> {base_path}")
    print(f"AnS instance: {len(dataset.instance)} triples -> {instance_path}")
    return 0


def _command_demo(arguments: argparse.Namespace) -> int:
    if arguments.serve:
        return _demo_serve()
    dataset = blogger_dataset(BloggerConfig(bloggers=arguments.bloggers))
    session = OLAPSession(dataset.instance, dataset.schema)
    query = sites_per_blogger_query(dataset.schema)
    cube = session.execute(query)
    print(f"Instance: {len(dataset.instance)} triples; cube {query.name}: {len(cube)} cells")
    print(cube.to_text(max_rows=10))
    print()
    ages = sorted(cube.dimension_values("dage"), key=repr)
    operations = (Slice("dage", ages[0]), Dice({"dage": (20, 40)}), DrillOut("dage"))
    if arguments.advise:
        return _demo_advise(dataset, session, query, operations)
    if arguments.explain:
        # The planner chooses per operation; print its costed plan each time.
        for operation in operations:
            session.transform(query, operation, strategy="plan")
            record = session.history[-1]
            print(record.details["plan"])
            print(
                f"   executed {record.strategy} in {record.seconds * 1000:.2f} ms "
                f"-> {record.output_cells} cells"
            )
            print()
        return 0
    for operation in operations:
        comparison = session.compare_strategies(query, operation)
        print(
            f"{operation.describe():<35} rewrite {comparison['rewrite_seconds'] * 1000:8.2f} ms   "
            f"scratch {comparison['scratch_seconds'] * 1000:8.2f} ms   "
            f"speedup {comparison['speedup']:6.1f}x   equal={comparison['equal']}"
        )
    return 0


def _demo_serve() -> int:
    """Smoke the serving layer: 4 tenants × 10 seeded requests, 90/10 read-write.

    A write adds one fresh fact through the single writer, which republishes
    the graph.  Every served cube is then checked against from-scratch
    evaluation over the generation it was served from; any divergence makes
    the exit code 1.
    """
    import asyncio
    import random
    import time

    from repro.analytics.evaluator import AnalyticalQueryEvaluator
    from repro.errors import AdmissionError
    from repro.olap.cube import Cube
    from repro.rdf import RDF, Literal, Triple
    from repro.rdf.namespaces import EX
    from repro.serving import OLAPService
    from repro.serving.generations import resolve_publish_mode

    dataset = generic_dataset(GenericConfig(facts=300, dimensions=2, seed=7))
    query = dataset.query
    mode = resolve_publish_mode("auto")
    print(f"serving demo: generic instance, {len(dataset.instance)} triples, publish mode {mode!r}")
    rng = random.Random(7)
    plans = [[rng.random() < 0.1 for _ in range(10)] for _ in range(4)]

    def new_fact(tag: str) -> list:
        fact = EX.term(f"fact/served-{tag}")
        dimensions = [Triple(fact, EX.term(f"dim{d}"), EX.term(f"dimvalue/{d}/{d}")) for d in range(2)]
        return [Triple(fact, RDF.term("type"), EX.term("Fact")), *dimensions,
                Triple(fact, EX.term("measure"), Literal(5))]

    async def drive():
        served, latencies = [], []
        async with OLAPService(
            dataset.instance, dataset.schema, max_queue_depth=8, per_tenant_limit=4
        ) as service:

            async def client(index: int) -> None:
                for step, write in enumerate(plans[index]):
                    started = time.perf_counter()
                    if write:
                        await service.update(add=new_fact(f"{index}-{step}"))
                    else:
                        try:
                            served.append(await service.query(f"tenant-{index}", query))
                            latencies.append(time.perf_counter() - started)
                        except AdmissionError:
                            pass  # counted in service.stats, never retried
                    await asyncio.sleep(0)

            await asyncio.gather(*(client(index) for index in range(len(plans))))
            oracles = {}
            for result in served:
                if result.graph_version not in oracles:
                    answer = AnalyticalQueryEvaluator(result.generation.graph).answer(query)
                    oracles[result.graph_version] = Cube(answer, query)
            verified = sum(r.cube.same_cells(oracles[r.graph_version]) for r in served)
            return served, sorted(latencies), verified, service.stats

    served, latencies, verified, stats = asyncio.run(drive())
    writes = sum(write for plan in plans for write in plan)
    print(
        f"4 tenants x 10 requests (90/10 read-write): {len(served)} served, {writes} writes, "
        f"{stats.rejected} rejected, {stats.publishes} publishes"
    )
    p50, p95 = (latencies[round(q * (len(latencies) - 1))] * 1000 for q in (0.5, 0.95))
    print(f"read latency p50 {p50:.2f} ms, p95 {p95:.2f} ms")
    print(
        f"snapshot versions answered: {sorted({result.graph_version for result in served})}; "
        f"verified {verified}/{len(served)} cubes against scratch at their version"
    )
    return 0 if verified == len(served) else 1


def _demo_advise(dataset, session: OLAPSession, query, operations) -> int:
    """Profile → advise → advised replay vs. the cold static planner."""
    import time

    # Profile pass: the demo operations (with repeats, so keys become hot).
    for operation in operations:
        session.transform(query, operation, strategy="plan")
    for operation in operations:
        session.transform(query, operation, strategy="plan")  # repeats
    report = session.advise()
    print(report.describe())
    print()

    def replay(replay_session: OLAPSession) -> float:
        started = time.perf_counter()
        replay_session.execute(query)
        for operation in operations:
            replay_session.transform(query, operation, strategy="plan")
        return time.perf_counter() - started

    static_session = OLAPSession(dataset.instance, dataset.schema)
    static_seconds = replay(static_session)

    advised_session = OLAPSession(
        dataset.instance, dataset.schema, cost_model=report.cost_model
    )
    applied = advised_session.apply_recommendations(report)
    advised_seconds = replay(advised_session)

    print(
        f"applied: {applied['materialized']} materialized, "
        f"{applied['pinned']} pinned, {applied['evicted']} evicted"
    )
    print(f"static planner (cold):   {static_seconds * 1000:8.2f} ms")
    print(
        f"advised (warm + fitted): {advised_seconds * 1000:8.2f} ms   "
        f"speedup {static_seconds / advised_seconds if advised_seconds > 0 else float('inf'):.2f}x   "
        f"cache hits {advised_session.cache.stats.hits}"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    arguments = build_parser().parse_args(argv)
    if arguments.command == "generate":
        return _command_generate(arguments)
    if arguments.command == "demo":
        return _command_demo(arguments)
    return 2  # pragma: no cover - argparse enforces the choices above


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
