"""The six closed-loop workloads of the end-to-end benchmark.

Every workload drives the system through its public API only, from one
process, in a closed loop: a client issues its next operation when the
previous one has returned.  The data seed and the operation-stream seed are
both derived from ``--seed``; the program under test receives generated
inputs only.

A workload object is used in this order::

    setup()                      # generate data, build the system
    warm_up()                    # the first WARMUP_OPS operations of the stream
    run(budget, recorder)        # one timed block; the op stream continues
    finish(recorder)             # inside the last block
    counters()                   # per-layer counts from the public stats objects
    verify()                     # after the window: sampled cubes vs scratch
    close()

README.md in this directory says why each workload exists and which layers
it is meant to load.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import random
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analytics.evaluator import AnalyticalQueryEvaluator
from repro.analytics.query import AnalyticalQuery
from repro.datagen.distributions import zipf_index
from repro.datagen.generic import GenericConfig, GenericDataset, generic_dataset, generic_query
from repro.ingest.scheduler import RefreshScheduler
from repro.ingest.stream import StreamIngestor
from repro.olap.cache import canonical_query_key, graph_fingerprint
from repro.olap.cube import Cube
from repro.olap.hierarchy import DimensionHierarchy
from repro.olap.operations import Dice, DrillIn, DrillOut, OLAPOperation, Slice
from repro.olap.session import OLAPSession
from repro.rdf.graph import Graph
from repro.rdf.namespaces import EX, RDF
from repro.rdf.terms import IRI, Literal
from repro.rdf.triples import Triple
from repro.serving.service import OLAPService
from repro.storage.snapshot import load_snapshot, save_snapshot

from trace import OP_ID

__all__ = ["Budget", "Recorder", "Sampler", "Scale", "SCALES", "WARMUP_OPS", "WORKLOADS"]

#: Operations of the stream run untimed before the first timed window, the
#: same number on every workload (per client on ``serve_mixed``).
WARMUP_OPS = 16
#: Served cubes kept for the correctness gate: a seeded reservoir over all
#: reads, and one over the first read of each distinct graph version.
SAMPLED_READS = 24
SAMPLED_VERSIONS = 24
#: Length of the cyclic read/write plan of the two mixed workloads.
PLAN_LENGTH = 1000
WRITE_EVERY = 10  # 90 % reads, 10 % writes
RETRACT_EVERY = 4  # a quarter of ingest_refresh's writes retract an earlier fact
READ_RUN = 6

_RDF_TYPE = RDF.term("type")
_clock = time.perf_counter


@dataclass(frozen=True)
class Scale:
    """Input sizes.  ``full`` is what BENCHMARK.json measures."""

    session_facts: int  # scratch_* and nav_* workloads
    service_facts: int  # serve_mixed and ingest_refresh
    episode: int  # operations per navigation episode
    setups: int  # times the set-up is repeated for the setup_s median


SCALES: Dict[str, Scale] = {
    "full": Scale(session_facts=4000, service_facts=2500, episode=120, setups=3),
    "smoke": Scale(session_facts=240, service_facts=160, episode=40, setups=1),
}


def derive_seed(seed: int, label: str) -> int:
    """A 31-bit seed for one named purpose, derived from ``--seed``."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def make_dataset(facts: int, seed: int) -> GenericDataset:
    return generic_dataset(
        GenericConfig(
            facts=facts,
            dimensions=3,
            values_per_dimension=1.4,
            measures_per_fact=2.0,
            with_detail=True,
            zipf_exponent=0.9,
            seed=derive_seed(seed, "data"),
        )
    )


def dimension_value(dimension: int, value: int) -> IRI:
    return EX.term(f"dimvalue/{dimension}/{value}")


def restricted(query: AnalyticalQuery, dimension: int, values: Sequence[int]) -> AnalyticalQuery:
    """``query`` with Σ limiting one dimension to a set of generated values."""
    return Dice({f"d{dimension}": [dimension_value(dimension, value) for value in values]}).apply(query)


def scratch_variants(config: GenericConfig) -> List[AnalyticalQuery]:
    """The fixed query list of the two from-scratch workloads: six aggregates,
    with and without the detail join, with and without a Σ restriction."""

    def variant(aggregate: str, detail: bool, name: str) -> AnalyticalQuery:
        return generic_query(config, aggregate=aggregate, include_detail_in_classifier=detail, name=name)

    return [
        variant("count", False, "v_count"),
        variant("sum", True, "v_sum_detail"),
        restricted(variant("avg", False, "v_avg"), 0, range(0, 6)),
        variant("min", True, "v_min_detail"),
        variant("max", False, "v_max"),
        variant("count_distinct", False, "v_count_distinct"),
        restricted(variant("count", True, "v_count_detail"), 1, range(0, 10)),
        variant("sum", False, "v_sum"),
    ]


def served_variants(config: GenericConfig) -> List[AnalyticalQuery]:
    """The three cubes read by ``serve_mixed`` and ``ingest_refresh``.

    A small one (Σ keeps 6 of 20 values of ``d0``), a medium one and a large
    one (a fourth dimension drilled in), read equally often.  The median read
    then lies in the middle of the medium cube's reads and the 95th
    percentile inside the large cube's, each well away from the edge of a
    mode, where the host's speed flips would decide the figure.
    """
    detailed = generic_query(config, aggregate="avg", include_detail_in_classifier=True, name="avg_detail")
    return [
        restricted(generic_query(config, aggregate="count", name="s_count"), 0, range(0, 6)),
        generic_query(config, aggregate="sum", include_detail_in_classifier=True, name="s_sum_detail"),
        DrillIn("da").apply(detailed),
    ]


def fresh_fact(config: GenericConfig, rng: random.Random, tag: str) -> List[Triple]:
    """One new fact with every dimension, two measures and a detail (7 triples)."""
    fact = EX.term(f"fact/e2e-{tag}")
    triples = [Triple(fact, _RDF_TYPE, EX.term("Fact"))]
    for dimension in range(config.dimensions):
        value = zipf_index(rng, config.dimension_cardinality, config.zipf_exponent)
        triples.append(Triple(fact, EX.term(f"dim{dimension}"), dimension_value(dimension, value)))
    for _ in range(2):
        triples.append(Triple(fact, EX.measure, Literal(rng.randrange(1, config.measure_max))))
    detail = zipf_index(rng, config.detail_cardinality, config.zipf_exponent)
    triples.append(Triple(fact, EX.hasDetail, EX.term(f"detail/{detail}")))
    return triples


def mixed_plan(rng: random.Random, variants: int, retract: bool) -> List[object]:
    """A cyclic plan of reads (a variant index) and writes (``"add"``/``"retract"``).

    Every run of ``WRITE_EVERY`` operations holds exactly one write, at a
    drawn position, and every ``RETRACT_EVERY``-th write is a retraction: a
    write costs tens of reads, so drawing the *number* of writes would make
    throughput a lottery, while fixing their positions would let two clients
    fall into lockstep.  Reads are sticky — a client polls one cube
    ``READ_RUN`` times, then moves to the next — so that, with a new graph
    version every few operations, well under half of the reads are the first
    of their cube at that version (the median read is a cache hit) and every
    cube gets the same share of the reads whatever the seed.
    """
    plan: List[object] = []
    variant = rng.randrange(variants)
    reads = writes = 0
    for start in range(0, PLAN_LENGTH, WRITE_EVERY):
        write_at = start + rng.randrange(WRITE_EVERY)
        for position in range(start, start + WRITE_EVERY):
            if position == write_at:
                writes += 1
                plan.append("retract" if retract and writes % RETRACT_EVERY == 0 else "add")
                continue
            reads += 1
            if reads % READ_RUN == 0:
                variant = (variant + 1) % variants
            plan.append(variant)
    return plan


def stream_hash(descriptions: Sequence[object]) -> str:
    digest = hashlib.sha256()
    for description in descriptions:
        digest.update(repr(description).encode())
        digest.update(b"\n")
    return digest.hexdigest()[:16]


# ---------------------------------------------------------------------------
# window bookkeeping
# ---------------------------------------------------------------------------


class Budget:
    """Ends a window after ``seconds`` or after ``ops`` operations per client."""

    def __init__(self, seconds: Optional[float] = None, ops: Optional[int] = None):
        if seconds is None and ops is None:
            raise ValueError("a budget needs seconds or ops")
        self.seconds = seconds
        self.ops = ops
        self.deadline = float("inf")

    def start(self) -> None:
        if self.seconds is not None:
            self.deadline = _clock() + self.seconds

    def more(self, done: int) -> bool:
        if self.ops is not None and done >= self.ops:
            return False
        return _clock() < self.deadline


@dataclass
class Recorder:
    """What the timed blocks of one kind (plain or traced) measured, in raw seconds."""

    #: ``(start, seconds)`` of every timed read.
    reads: List[Tuple[float, float]] = field(default_factory=list)
    #: ``(start, seconds)`` of every acknowledged write (see README: ``write_p50_ms``).
    writes: List[Tuple[float, float]] = field(default_factory=list)
    write_seconds: float = 0.0
    #: Time spent reading the host-speed yardstick inside the loop; not the program's.
    probe_seconds: float = 0.0
    #: Wall and CPU of the blocks, yardstick time left out; run.py fills these
    #: in, scaled block by block to the nominal host (raw wall kept beside).
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    raw_wall_seconds: float = 0.0
    mutations: int = 0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    wait_seconds: float = 0.0  # Σ ServedResult.waited_seconds
    execute_seconds: float = 0.0  # Σ ServedResult.seconds

    def fail(self, error: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{type(error).__name__}: {error}")


class Sampler:
    """Seeded reservoirs of served cubes for the correctness gate.

    An item is ``(query, cube, version, graph)``; ``graph`` is the frozen
    graph the cube was served from when the workload has one to hand.
    """

    def __init__(self, seed: int):
        self._rng = random.Random(derive_seed(seed, "sample"))
        self.any: List[tuple] = []
        self.first_of_version: List[tuple] = []
        self._seen = 0
        self._versions: set = set()

    def _offer(self, reservoir: List[tuple], capacity: int, count: int, item: tuple) -> None:
        if count <= capacity:
            reservoir.append(item)
            return
        slot = self._rng.randrange(count)
        if slot < capacity:
            reservoir[slot] = item

    def offer(self, query: AnalyticalQuery, cube: Cube, version: int, graph=None) -> None:
        item = (query, cube, version, graph)
        self._seen += 1
        self._offer(self.any, SAMPLED_READS, self._seen, item)
        if version not in self._versions:
            self._versions.add(version)
            self._offer(self.first_of_version, SAMPLED_VERSIONS, len(self._versions), item)

    @property
    def versions_served(self) -> int:
        return len(self._versions)

    def items(self) -> List[tuple]:
        return self.any + self.first_of_version


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """Shared skeleton; subclasses fill in set-up and the per-operation step."""

    name = ""
    clients = 1
    #: Pin the run to one CPU (see ServeMixed).
    one_cpu = False
    #: Files left in the service's spool directory after close (ServeMixed).
    spool_files_left = 0

    def __init__(self, seed: int, scale: Scale, scratch_dir: str):
        self.seed = seed
        self.scale = scale
        self.scratch_dir = scratch_dir
        self.sampler = Sampler(seed)
        self.next_op = 0
        self.provenance: Dict[str, object] = {}

    # -- lifecycle --------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def describe(self, instance, ops: Sequence[object]) -> None:
        """Record what was generated (kept out of the set-up timer by the caller)."""
        self.provenance = {
            "triples": len(instance),
            "graph_fingerprint": graph_fingerprint(instance),
            "op_stream_hash": stream_hash(ops),
            # The engine is resolved per process, not per graph.
            "engine": AnalyticalQueryEvaluator(Graph()).engine,
        }

    # -- the timed window -------------------------------------------------

    def warm_up(self) -> None:
        """Run the first operations of the stream untimed (the last step of set-up)."""
        self.run(Budget(ops=WARMUP_OPS), Recorder())

    def run(self, budget: Budget, recorder: Recorder, host=None) -> None:
        """Run operations of the stream until ``budget`` ends.

        ``host`` (a ``hostspeed.HostSpeed``) gets a yardstick reading between
        two operations whenever one is due.
        """
        budget.start()
        done = 0
        while budget.more(done):
            if host is not None and host.due():
                started = _clock()
                host.read()
                recorder.probe_seconds += _clock() - started
            index = self.next_op
            self.next_op += 1
            done += 1
            OP_ID.set(index)
            recorder.attempted += 1
            try:
                self.step(index, recorder)
            except Exception as error:  # a failed op is counted, the loop goes on
                recorder.fail(error)

    def step(self, index: int, recorder: Recorder) -> None:
        raise NotImplementedError

    def finish(self, recorder: Recorder) -> None:
        """Work that belongs to the end of the last timed block (ingest drain)."""

    def timed_read(self, recorder: Recorder, call, version: int) -> None:
        """Time ``call`` until the decoded cube is in hand, then offer it to the sampler."""
        started = _clock()
        cube = call()
        recorder.reads.append((started, _clock() - started))
        self.sampler.offer(cube.query, cube, version)

    # -- after the window -------------------------------------------------

    def sessions(self) -> List[OLAPSession]:
        """The sessions whose public stats feed the per-layer counters."""
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        sessions = self.sessions()
        cache = {name: 0 for name in ("hits", "misses", "evictions", "refreshes", "lazy_refreshes", "invalidations")}
        strategies = {"cached": 0, "rewrite": 0, "scratch": 0, "parallel": 0}
        records = input_rows = output_cells = fallbacks = 0
        for session in sessions:
            stats = session.cache.stats
            for name in cache:
                cache[name] += getattr(stats, name)
            for record in session.history:
                records += 1
                input_rows += record.input_rows
                output_cells += record.output_cells
                strategies[strategy_family(record.strategy)] += 1
            if session.parallel is not None:
                fallbacks += len(session.parallel.stats.fallbacks)
        lookups = cache["hits"] + cache["misses"]
        result = {f"olap.cache.{name}": float(count) for name, count in cache.items()}
        result["olap.cache.hit_ratio"] = cache["hits"] / lookups if lookups else 0.0
        for family, count in strategies.items():
            result[f"olap.strategy.{family}_share"] = count / records if records else 0.0
        result["olap.session.input_rows_per_cell"] = input_rows / output_cells if output_cells else 0.0
        result["olap.parallel.fallbacks"] = float(fallbacks)
        return result

    def graph_at(self, version: int, graph):
        """The graph a sampled cube must be checked against."""
        raise NotImplementedError

    def verify(self) -> Tuple[int, int]:
        """Check the sampled cubes against fresh from-scratch evaluation.

        Returns ``(checked, wrong)``.  Items are visited newest version
        first so ``ingest_refresh`` can roll its graph back as it goes.
        """
        items = sorted(self.sampler.items(), key=lambda item: -item[2])
        oracles: Dict[Tuple[int, str], Cube] = {}
        wrong = 0
        for query, cube, version, graph in items:
            key = (version, canonical_query_key(query))
            oracle = oracles.get(key)
            if oracle is None:
                evaluator = AnalyticalQueryEvaluator(self.graph_at(version, graph))
                oracle = oracles[key] = Cube(evaluator.answer(query), query)
            if not cube.same_cells(oracle):
                wrong += 1
        return len(items), wrong


def strategy_family(strategy: str) -> str:
    """Fold a history strategy label into cached / rewrite / scratch / parallel."""
    if "parallel" in strategy:
        return "parallel"
    if "scratch" in strategy:
        return "scratch"
    if strategy.startswith("cache") or strategy == "plan[cached]":
        return "cached"
    return "rewrite"  # rewritings, compat/rollup reuse and delta refreshes all reuse a materialized result


class ScratchMedium(Workload):
    """``execute`` with the cache off: BGP solve, join, γ and decode do all the work."""

    name = "scratch_medium"

    def setup(self) -> None:
        dataset = make_dataset(self.scale.session_facts, self.seed)
        self.variants = scratch_variants(dataset.config)
        self.session = self.open_session(dataset)

    def open_session(self, dataset: GenericDataset) -> OLAPSession:
        return OLAPSession(dataset.instance, dataset.schema, workers=1, cache_capacity=0)

    def describe_run(self) -> None:
        self.describe(self.session.instance, [query.describe() for query in self.variants])

    def step(self, index: int, recorder: Recorder) -> None:
        query = self.variants[index % len(self.variants)]
        self.timed_read(recorder, lambda: self.session.execute(query), self.session.instance.version)

    def sessions(self) -> List[OLAPSession]:
        return [self.session]

    def graph_at(self, version: int, graph):
        return self.session.instance

    def close(self) -> None:
        self.session.close()


class ScratchParallel(ScratchMedium):
    """The same queries over an mmap snapshot with two worker processes."""

    name = "scratch_parallel"

    def open_session(self, dataset: GenericDataset) -> OLAPSession:
        self.snapshot_path = os.path.join(self.scratch_dir, "instance.snap")
        save_snapshot(dataset.instance, self.snapshot_path)
        return OLAPSession(
            snapshot=self.snapshot_path,
            schema=dataset.schema,
            workers=2,
            parallel_backend="process",
            cache_capacity=0,
        )

    def counters(self) -> Dict[str, float]:
        result = super().counters()
        result["storage.bytes_per_triple"] = os.path.getsize(self.snapshot_path) / len(self.session.instance)
        return result

    def graph_at(self, version: int, graph):
        return load_snapshot(self.snapshot_path)


class NavWarm(Workload):
    """The paper's workload: OLAP navigation answered from materialized results.

    The root cube is executed during set-up.  The stream is a seeded
    *episode* of ``episode`` slices, dices, drills and rolls, replayed for as
    long as the window lasts.  Each episode starts with only the root cube
    materialized, so the share of steps that repeat an earlier one stays the
    same however long the window is.
    """

    name = "nav_warm"
    cache_capacity: Optional[int] = None  # the session's default

    def setup(self) -> None:
        dataset = make_dataset(self.scale.session_facts, self.seed)
        config = dataset.config
        self.instance = dataset.instance
        self.root = generic_query(config, aggregate="count", include_detail_in_classifier=True, name="root")
        options = {} if self.cache_capacity is None else {"cache_capacity": self.cache_capacity}
        self.session = OLAPSession(dataset.instance, dataset.schema, **options)
        self.session.execute(self.root)
        self.steps = self.episode(config, random.Random(derive_seed(self.seed, "ops")))

    def episode(self, config: GenericConfig, rng: random.Random) -> List[tuple]:
        """``(label, origin query, operation)`` per step.

        Values are drawn Zipf from the ten most frequent of each dimension,
        so about two thirds of an episode's steps repeat an earlier one and
        its distinct results (at most 55) fit the default cache of 64.
        """
        values = range(config.dimension_cardinality)
        size = max(1, len(values) // 4)
        level1 = DimensionHierarchy.from_pairs(
            [(dimension_value(0, value), EX.term(f"d0bucket/{value // size}")) for value in values],
            name="d0_bucket",
        )
        level2 = DimensionHierarchy.from_pairs(
            [(EX.term(f"d0bucket/{bucket}"), EX.term(f"d0half/{bucket // 2}")) for bucket in range(len(values) // size + 1)],
            name="d0_half",
        )
        root = self.root
        coarse = DrillOut("d2").apply(root)
        rolled1 = root.with_rollup("d0", level1, name="root_bucket")
        rolled2 = rolled1.with_rollup("d0", level2, name="root_half")
        self.hierarchies = {"bucket": level1, "half": level2}

        def popular(dimension: int) -> IRI:
            return dimension_value(dimension, zipf_index(rng, 10, 1.1))

        dices = [
            {"d0": [dimension_value(0, v) for v in range(4)]},
            {"d1": [dimension_value(1, v) for v in range(6)]},
            {"d0": [dimension_value(0, v) for v in range(8)], "d2": [dimension_value(2, v) for v in range(3)]},
            {"d1": [dimension_value(1, v) for v in range(2, 9)], "d2": [dimension_value(2, v) for v in range(5)]},
            {"d2": [dimension_value(2, 0), dimension_value(2, 3)]},
            {"d0": [dimension_value(0, 1)], "d1": [dimension_value(1, v) for v in range(10)]},
        ]
        # Few distinct drill-outs and drill-ins: the planner prices the first
        # of each below its rewriting and evaluates it on the instance.
        drill_outs = [(root, "d1"), (coarse, "d1")]
        drill_ins = [(root, "da")]
        rolls = [("roll-up", root, "bucket"), ("roll-up", rolled1, "half"),
                 ("drill-down", rolled2, None), ("drill-down", rolled1, None)]
        # The mix of kinds and their interleaving are fixed — each step takes
        # the kind that is furthest behind its share — so two seeds give
        # episodes of the same weight and the same eviction pattern; the seed
        # draws the sliced values.  The costly kinds walk their options in turn.
        shares = [("slice", 0.30), ("slice-derived", 0.10), ("dice", 0.15),
                  ("drill-out", 0.15), ("drill-in", 0.10), ("roll", 0.20)]
        kinds: List[str] = []
        for position in range(1, self.scale.episode):
            kinds.append(max(shares, key=lambda item: item[1] * position - kinds.count(item[0]))[0])
        seen = {kind: 0 for kind, _ in shares}
        # The analyst derives the coarser cube first, so steps that start from
        # it find it materialized.
        steps: List[tuple] = [("drill-out", root, DrillOut("d2"))]
        for kind in kinds:
            turn = seen[kind]
            seen[kind] += 1
            if kind == "slice":
                dimension = turn % 3
                steps.append((kind, root, Slice(f"d{dimension}", popular(dimension))))
            elif kind == "slice-derived":
                steps.append((kind, coarse, Slice("d0", popular(0))))
            elif kind == "dice":
                steps.append((kind, root, Dice(dices[turn % len(dices)])))
            elif kind == "drill-out":
                origin, dims = drill_outs[turn % len(drill_outs)]
                steps.append((kind, origin, DrillOut(dims)))
            elif kind == "drill-in":
                origin, dim = drill_ins[turn % len(drill_ins)]
                steps.append((kind, origin, DrillIn(dim)))
            else:
                steps.append(rolls[turn % len(rolls)])
        return steps

    def describe_run(self) -> None:
        ops = [
            (label, origin.name, operation.describe() if isinstance(operation, OLAPOperation) else operation)
            for label, origin, operation in self.steps
        ]
        self.describe(self.instance, ops)

    def step(self, index: int, recorder: Recorder) -> None:
        session = self.session
        position = index % self.scale.episode
        if position == 0:
            # A new analyst: nothing but the root cube is materialized.
            root_key = canonical_query_key(self.root)
            for entry in session.cache.entries():
                if entry.key != root_key:
                    session.cache.discard(entry.query)
        label, origin, operation = self.steps[position]
        if label == "roll-up":
            call = lambda: session.roll_up(origin, "d0", self.hierarchies[operation])
        elif label == "drill-down":
            call = lambda: session.drill_down(origin, "d0")
        else:
            call = lambda: session.transform(origin, operation)
        self.timed_read(recorder, call, self.instance.version)

    def sessions(self) -> List[OLAPSession]:
        return [self.session]

    def graph_at(self, version: int, graph):
        return self.instance

    def close(self) -> None:
        self.session.close()


class NavPressure(NavWarm):
    """Identical data and stream with room for four results: evictions,
    compatible-entry reuse and from-scratch fallbacks."""

    name = "nav_pressure"
    cache_capacity = 4


class ServeMixed(Workload):
    """Two tenants against ``OLAPService``: 90 % queries, 10 % publishing updates."""

    name = "serve_mixed"
    clients = 2
    one_cpu = True

    def setup(self) -> None:
        dataset = make_dataset(self.scale.service_facts, self.seed)
        self.config = dataset.config
        self.instance = dataset.instance
        self.variants = served_variants(dataset.config)
        self.spool_dir = os.path.join(self.scratch_dir, "spool")
        self.loop = asyncio.new_event_loop()
        self.service = OLAPService(
            dataset.instance,
            dataset.schema,
            max_concurrency=2,
            publish_mode="auto",
            spool_dir=self.spool_dir,
        )
        self.plans = [
            mixed_plan(random.Random(derive_seed(self.seed, f"ops-{client}")), len(self.variants), retract=False)
            for client in range(self.clients)
        ]
        self.fact_rngs = [random.Random(derive_seed(self.seed, f"facts-{client}")) for client in range(self.clients)]
        self.next_ops = [0] * self.clients
        self.strategies = {"cached": 0, "rewrite": 0, "scratch": 0, "parallel": 0}

    def describe_run(self) -> None:
        self.describe(self.instance, self.plans)

    def run(self, budget: Budget, recorder: Recorder, host=None) -> None:
        # No yardstick readings inside the loop: with two clients an operation
        # is always in flight.  The readings between blocks have to do.
        budget.start()
        self.loop.run_until_complete(self._drive(budget, recorder))

    async def _drive(self, budget: Budget, recorder: Recorder) -> None:
        tasks = [asyncio.ensure_future(self._client(client, budget, recorder)) for client in range(self.clients)]
        await asyncio.gather(*tasks)

    async def _client(self, client: int, budget: Budget, recorder: Recorder) -> None:
        plan = self.plans[client]
        tenant = f"tenant-{client}"
        done = 0
        while budget.more(done):
            index = self.next_ops[client]
            self.next_ops[client] += 1
            done += 1
            OP_ID.set(index * self.clients + client)
            recorder.attempted += 1
            kind = plan[index % len(plan)]
            started = _clock()
            try:
                if kind == "add":
                    rng = self.fact_rngs[client]
                    triples = fresh_fact(self.config, rng, f"{client}-{index}-a") + fresh_fact(
                        self.config, rng, f"{client}-{index}-b"
                    )
                    started = _clock()
                    result = await self.service.update(add=triples)
                    elapsed = _clock() - started
                    recorder.writes.append((started, elapsed))
                    recorder.write_seconds += elapsed
                    recorder.mutations += result.mutations
                else:
                    query = self.variants[kind]
                    served = await self.service.query(tenant, query)
                    recorder.reads.append((started, _clock() - started))
                    recorder.wait_seconds += served.waited_seconds
                    recorder.execute_seconds += served.seconds
                    self.strategies[strategy_family(served.strategy)] += 1
                    self.sampler.offer(query, served.cube, served.graph_version, served.generation.graph)
            except Exception as error:  # admission rejections and raised ops both count as failed
                recorder.fail(error)

    def sessions(self) -> List[OLAPSession]:
        return [
            session
            for tenant in self.service.tenants()
            for session in self.service.tenant(tenant).sessions.values()
        ]

    def counters(self) -> Dict[str, float]:
        # Cache counters cover the tenant sessions still alive: sessions of
        # retired generations are closed and dropped with their stats.  The
        # strategy shares come from every ServedResult instead.
        result = super().counters()
        served = sum(self.strategies.values())
        for family, count in self.strategies.items():
            result[f"olap.strategy.{family}_share"] = count / served if served else 0.0
        result["serving.rejected"] = float(self.service.stats.rejected)
        result["serving.publishes"] = float(self.service.stats.publishes)
        current = self.service.generations.current
        if current.path is not None:
            result["storage.bytes_per_triple"] = os.path.getsize(current.path) / len(current.graph)
        return result

    def graph_at(self, version: int, graph):
        return graph

    def close(self) -> None:
        self.loop.run_until_complete(self.service.aclose())
        self.loop.close()
        self.spool_files_left = len(os.listdir(self.spool_dir)) if os.path.isdir(self.spool_dir) else 0


class IngestRefresh(Workload):
    """A warm session over a live graph fed by ``StreamIngestor``: buffer,
    flush, delta refresh — and no generation publish."""

    name = "ingest_refresh"

    def setup(self) -> None:
        dataset = make_dataset(self.scale.service_facts, self.seed)
        self.config = dataset.config
        self.graph = dataset.instance
        self.variants = served_variants(dataset.config)
        self.session = OLAPSession(self.graph, dataset.schema)
        for query in self.variants:
            self.session.execute(query)
        self.scheduler = RefreshScheduler([self.session], policy="auto")
        # Batches are cut by size only: an age cut would make the counters
        # depend on the wall clock.
        self.ingestor = StreamIngestor(self.graph, batch_size=8, max_batch_age=3600.0, scheduler=self.scheduler)
        self.plan = mixed_plan(random.Random(derive_seed(self.seed, "ops")), len(self.variants), retract=True)
        self.fact_rng = random.Random(derive_seed(self.seed, "facts"))
        self.outstanding: deque = deque()
        self._rollback = None

    def describe_run(self) -> None:
        self.describe(self.graph, self.plan)

    def step(self, index: int, recorder: Recorder) -> None:
        kind = self.plan[index % len(self.plan)]
        if isinstance(kind, int):
            query = self.variants[kind]
            self.timed_read(recorder, lambda: self.session.execute(query), self.graph.version)
            return
        # Retract the oldest added fact, and only once three newer ones are
        # queued behind it: its add has then been applied, so every mutation
        # of every batch is effective and verify() can undo batches exactly.
        if kind == "retract" and len(self.outstanding) > 3:
            add, remove = (), self.outstanding.popleft()
        else:
            add, remove = fresh_fact(self.config, self.fact_rng, str(index)), ()
            self.outstanding.append(add)
        started = _clock()
        self.ingestor.ingest(add=add, remove=remove)
        batch = self.ingestor.pump()
        elapsed = _clock() - started
        recorder.write_seconds += elapsed
        if batch is not None:
            recorder.writes.append((started, elapsed))
            recorder.mutations += len(batch)

    def finish(self, recorder: Recorder) -> None:
        started = _clock()
        batches = self.ingestor.drain()
        recorder.write_seconds += _clock() - started
        recorder.mutations += sum(len(batch) for batch in batches)

    def sessions(self) -> List[OLAPSession]:
        return [self.session]

    def counters(self) -> Dict[str, float]:
        result = super().counters()
        ingest, scheduler = self.ingestor.stats, self.scheduler.stats
        result["ingest.batches"] = float(ingest.batches)
        result["ingest.applied"] = float(ingest.applied_adds + ingest.applied_removes)
        result["ingest.coalesced"] = float(ingest.coalesced)
        result["ingest.scheduler.eager_refreshes"] = float(scheduler.eager_refreshes)
        result["ingest.scheduler.lazy_marks"] = float(scheduler.lazy_marks)
        result["ingest.scheduler.invalidations"] = float(scheduler.invalidations)
        return result

    def graph_at(self, version: int, graph):
        if self._rollback is None:
            self._rollback = self.graph.copy()
            self._undone = list(self.ingestor.applied)
        while self._undone and self._undone[-1].version > version:
            batch = self._undone.pop()
            for triple in batch.adds:
                self._rollback.remove(triple)
            for triple in batch.removes:
                self._rollback.add(triple)
        return self._rollback

    def close(self) -> None:
        self.ingestor.close()
        self.session.close()


WORKLOADS = {
    workload.name: workload
    for workload in (ScratchMedium, ScratchParallel, NavWarm, NavPressure, ServeMixed, IngestRefresh)
}
