"""Unit tests for the partial-aggregate merge algebra and the parallel executor.

The merge algebra is tested directly (empty shards, one-shard degeneracy,
AVG merge exactness, count_distinct dedup across shards, associativity and
commutativity); the executor is tested against the serial engine on the
paper's hand-built instances across backends, including the fallback paths
(non-mergeable aggregates, unpicklable custom aggregates), and the process
backend on what actually crosses the pipe (heap and snapshot instances).
"""

import itertools

import pytest

from repro.errors import AggregationError
from repro.rdf import EX, Literal, RDF, TermDictionary, Triple
from repro.rdf.terms import Variable
from repro.algebra.aggregates import (
    AggregateFunction,
    default_registry,
    get_aggregate,
)
from repro.algebra.grouping import (
    finalize_group_states,
    group_partial_states,
    merge_group_states,
)
from repro.algebra.relation import Relation
from repro.algebra.operators import project
from repro.analytics.evaluator import AnalyticalQueryEvaluator
from repro.analytics.query import AnalyticalQuery, KEY_COLUMN
from repro.analytics.sigma import DimensionRestriction
from repro.olap.cache import ResultCache
from repro.olap.cube import Cube
from repro.olap.parallel import KEY_STRIDE, ParallelExecutor
from repro.olap.planner import OLAPPlanner
from repro.olap.session import OLAPSession
from repro.olap.calibration import CostModel

from tests.conftest import make_sites_query, make_words_query

ALL_AGGREGATES = ("count", "sum", "avg", "min", "max", "count_distinct")


def _aggregate_via_states(aggregate_name, partitions):
    """Aggregate a partitioned bag through make → merge → finalize."""
    aggregate = get_aggregate(aggregate_name)
    states = []
    for part in partitions:
        if not part:
            continue  # empty shards contribute no state
        values = part if aggregate.raw_states else aggregate.prepare(part)
        states.append(aggregate.make(values))
    merged = states[0]
    for state in states[1:]:
        merged = aggregate.merge(merged, state)
    return aggregate.finalize(merged)


class TestPartialAggregateAlgebra:
    def test_every_standard_aggregate_is_mergeable(self):
        for name in ALL_AGGREGATES:
            assert get_aggregate(name).mergeable, name

    def test_merged_result_equals_serial_aggregate(self):
        bag = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3]
        for name in ALL_AGGREGATES:
            serial = get_aggregate(name)(bag)
            merged = _aggregate_via_states(name, [bag[:3], bag[3:7], bag[7:]])
            assert merged == serial, name

    def test_empty_shards_do_not_perturb_the_merge(self):
        bag = [10, 20, 30]
        for name in ALL_AGGREGATES:
            serial = get_aggregate(name)(bag)
            merged = _aggregate_via_states(name, [[], bag, [], []])
            assert merged == serial, name

    def test_all_rows_in_one_shard_is_the_identity(self):
        bag = [7, 7, 2]
        for name in ALL_AGGREGATES:
            assert _aggregate_via_states(name, [bag]) == get_aggregate(name)(bag), name

    def test_avg_merge_is_exact_on_integer_bags(self):
        # Integer sums stay integers per shard, so the merged total — and
        # float(total)/n — is bit-identical to the serial average for every
        # split of the bag.
        bag = [1, 2, 2, 4, 10, 17, 3]
        serial = get_aggregate("avg")(bag)
        for cut_a in range(len(bag) + 1):
            for cut_b in range(cut_a, len(bag) + 1):
                merged = _aggregate_via_states("avg", [bag[:cut_a], bag[cut_a:cut_b], bag[cut_b:]])
                assert merged == serial

    def test_avg_state_is_a_sum_count_pair(self):
        avg = get_aggregate("avg")
        assert avg.make([1, 2, 3]) == (6, 3)
        assert avg.merge((6, 3), (10, 1)) == (16, 4)
        assert avg.finalize((16, 4)) == 4.0

    def test_count_distinct_dedups_across_shards(self):
        # The same value appearing in several shards counts once.
        merged = _aggregate_via_states("count_distinct", [[1, 2], [2, 3], [3, 1]])
        assert merged == 3

    def test_count_distinct_finalize_decodes_each_member_once(self):
        distinct = get_aggregate("count_distinct")
        dictionary = TermDictionary()
        ids = [dictionary.encode(Literal(value)) for value in (28, 28.0, 35)]
        state = distinct.merge(distinct.make(ids[:2]), distinct.make(ids[1:]))
        # The first two ids decode to comparable-equal values -> 2 distinct.
        assert distinct.finalize(state, value=dictionary.value) == 2

    def test_merge_is_associative_and_commutative(self):
        bag = [5, 1, 5, 8, 2, 9, 9, 4]
        chunks = [bag[0:2], bag[2:4], bag[4:6], bag[6:8]]
        for name in ALL_AGGREGATES:
            aggregate = get_aggregate(name)
            states = [
                aggregate.make(chunk if aggregate.raw_states else aggregate.prepare(chunk))
                for chunk in chunks
            ]
            reference = None
            for ordering in itertools.permutations(range(len(states))):
                # left fold
                left = states[ordering[0]]
                for index in ordering[1:]:
                    left = aggregate.merge(left, states[index])
                # right fold (different association)
                right = states[ordering[-1]]
                for index in reversed(ordering[:-1]):
                    right = aggregate.merge(states[index], right)
                assert aggregate.finalize(left) == aggregate.finalize(right), name
                if reference is None:
                    reference = aggregate.finalize(left)
                assert aggregate.finalize(left) == reference, name

    def test_bag_function_aggregate_is_not_mergeable(self):
        registry = default_registry()
        name = "median_test_parallel"
        if name not in registry:
            registry.register(
                AggregateFunction(name, lambda values: sorted(values)[len(values) // 2], distributive=False)
            )
        median = get_aggregate(name)
        assert not median.mergeable
        assert median([5, 1, 3]) == 3  # state == value: make is the bag function
        with pytest.raises(AggregationError):
            median.merge(median.make([1]), median.make([2]))


class TestGroupPartialStates:
    def _relation(self, rows):
        return Relation(("d", "v"), rows)

    def test_states_merge_to_serial_group_aggregate(self):
        from repro.algebra.grouping import group_aggregate

        rows = [("a", 1), ("a", 2), ("b", 5), ("a", 2), ("b", 5)]
        for name in ALL_AGGREGATES:
            serial = group_aggregate(self._relation(rows), by=("d",), measure="v", function=name)
            split = [self._relation(rows[:2]), self._relation(rows[2:])]
            merged = merge_group_states(
                (group_partial_states(part, by=("d",), measure="v", function=name) for part in split),
                name,
            )
            finalized = finalize_group_states(merged, name, ("d", "v")).rows
            assert sorted(finalized) == sorted(serial.rows), name

    def test_none_measures_are_filtered_like_serial_gamma(self):
        rows = [("a", None), ("a", 3), ("b", None)]
        states = group_partial_states(self._relation(rows), by=("d",), measure="v", function="count")
        assert states == {("a",): 1}

    def test_empty_relation_yields_no_states(self):
        states = group_partial_states(self._relation([]), by=("d",), measure="v", function="sum")
        assert states == {}
        assert merge_group_states([states, {}], "sum") == {}
        assert finalize_group_states({}, "sum", ("d", "v")).rows == []

    def test_non_mergeable_aggregate_states_do_not_merge(self):
        registry = default_registry()
        name = "median_test_parallel_grouping"
        if name not in registry:
            registry.register(
                AggregateFunction(name, lambda values: sorted(values)[len(values) // 2], distributive=False)
            )
        # One partition is the serial γ: the "state" is the final value ...
        states = group_partial_states(
            self._relation([("a", 1), ("a", 9), ("a", 4)]), by=("d",), measure="v", function=name
        )
        assert finalize_group_states(states, name, ("d", "v")).rows == [("a", 4)]
        # ... which a second partition's slice of the same group cannot join.
        with pytest.raises(AggregationError):
            merge_group_states([states, states], name)


class TestGraphPartition:
    def test_shards_tile_the_id_space(self, example2_instance):
        shards = example2_instance.partition(3)
        assert len(shards) == 3
        assert shards[0].lo == 0
        for left, right in zip(shards, shards[1:]):
            assert left.hi == right.lo
        assert shards[-1].hi is None  # open-ended: later ids still map somewhere
        size = len(example2_instance.dictionary)
        for term_id in range(size + 5):
            owners = [shard for shard in shards if shard.contains(term_id)]
            assert len(owners) == 1

    def test_single_shard_covers_everything(self, example2_instance):
        (shard,) = example2_instance.partition(1)
        assert shard.lo == 0 and shard.hi is None

    def test_more_shards_than_terms_leaves_empty_shards(self, example2_instance):
        count = len(example2_instance.dictionary) + 10
        shards = example2_instance.partition(count)
        assert len(shards) == count
        empty = [shard for shard in shards if shard.hi is not None and shard.lo == shard.hi]
        assert empty  # surplus shards are empty intervals

    def test_invalid_count_raises(self, example2_instance):
        with pytest.raises(ValueError):
            example2_instance.partition(0)


def _executor(instance, **kwargs):
    return ParallelExecutor(AnalyticalQueryEvaluator(instance), **kwargs)


def _priced(instance, query, **executor_kwargs):
    """``{strategy: cost}`` of ``plan_query(query)`` on a planner over
    ``instance`` whose parallel executor is built from ``executor_kwargs``."""
    evaluator = AnalyticalQueryEvaluator(instance)
    with ParallelExecutor(evaluator, backend="serial", **executor_kwargs) as executor:
        plan = OLAPPlanner(evaluator, ResultCache(), parallel=executor).plan_query(query)
    return {candidate.strategy: candidate.cost for candidate in plan.candidates}


class TestParallelExecutor:
    @pytest.mark.parametrize("aggregate", ALL_AGGREGATES)
    @pytest.mark.parametrize("workers,shards,backend", [
        (1, 1, "serial"),
        (1, 3, "serial"),
        (2, 3, "thread"),
        (4, 7, "thread"),
    ])
    def test_matches_serial_engine_on_example2(
        self, example2_instance, aggregate, workers, shards, backend
    ):
        query = make_sites_query(aggregate)
        oracle = Cube(AnalyticalQueryEvaluator(example2_instance).answer(query), query)
        with _executor(
            example2_instance, workers=workers, shard_count=shards, backend=backend
        ) as executor:
            cube = Cube(executor.evaluate(query).answer, query)
        assert cube.same_cells(oracle)

    def test_example2_counts_are_the_paper_numbers(self, example2_instance):
        query = make_sites_query("count")
        with _executor(example2_instance, workers=2, shard_count=3, backend="thread") as executor:
            cube = Cube(executor.evaluate(query).answer, query)
        assert cube.cell(28, "http://example.org/Madrid") == 3
        assert cube.cell(35, "http://example.org/NY") == 2

    def test_avg_example4_exact(self, example4_instance):
        query = make_words_query("avg")
        with _executor(example4_instance, workers=2, shard_count=5, backend="thread") as executor:
            cube = Cube(executor.evaluate(query).answer, query)
        assert cube.cell(28, "http://example.org/Madrid") == 210.0
        assert cube.cell(35, "http://example.org/NY") == 570.0

    def test_pres_equals_serial_modulo_keys(self, example2_instance):
        query = make_sites_query("count")
        serial = AnalyticalQueryEvaluator(example2_instance)
        expected = serial.partial_result(query)
        with _executor(example2_instance, workers=2, shard_count=4, backend="thread") as executor:
            materialized = executor.evaluate(query)
        _assert_pres_equal_modulo_keys(materialized.partial, expected)

    def test_shard_keys_use_disjoint_strides(self, example2_instance):
        query = make_sites_query("count")
        evaluator = AnalyticalQueryEvaluator(example2_instance)
        keyed = 0
        for shard in example2_instance.partition(len(example2_instance.dictionary)):
            base = 1 + shard.index * KEY_STRIDE
            relation, _ = evaluator.shard_results(query, shard, key_base=base)
            assert relation.dictionary is None  # shipped cut loose from the dictionary
            keys = relation.column_values(KEY_COLUMN)
            assert all(base <= key < base + KEY_STRIDE for key in keys)
            keyed += bool(keys)
        assert keyed >= 2  # the strides really separated two shards' keys

    def test_process_backend_matches_serial(self, example2_instance):
        query = make_sites_query("count")
        oracle = Cube(AnalyticalQueryEvaluator(example2_instance).answer(query), query)
        with _executor(example2_instance, workers=2, shard_count=3, backend="process") as executor:
            cube = Cube(executor.evaluate(query).answer, query)
            assert executor.last_backend == "process"
        assert cube.same_cells(oracle)

    def test_process_workers_answer_over_a_saturate_sessions_closure(self, small_retail_dataset):
        """Workers seeded from a saturate session's closure count every
        entailed sale and amount, and are reseeded once a source mutation
        is synced into the closure."""
        from repro.datagen.retail import revenue_query
        from repro.rdf.reasoning import saturate

        dataset = small_retail_dataset
        source = dataset.instance.copy()
        query = revenue_query(dataset.schema)

        def oracle():
            return Cube(AnalyticalQueryEvaluator(saturate(source)).answer(query), query)

        plain = Cube(AnalyticalQueryEvaluator(source).answer(query), query)
        assert not oracle().same_cells(plain)  # entailment matters on this data
        with OLAPSession(source, dataset.schema, entailment="saturate") as session:
            with ParallelExecutor(
                session.evaluator, workers=2, shard_count=3, backend="process"
            ) as executor:
                cube = Cube(executor.evaluate(query).answer, query)
                assert executor.last_backend == "process"
                assert cube.same_cells(oracle())
                sale = EX.term("sale/parallel")
                source.add(Triple(sale, RDF.term("type"), EX.OnlineSale))
                source.add(Triple(sale, EX.atStore, EX.term("store/s0")))
                source.add(Triple(sale, EX.ofProduct, EX.term("product/p0")))
                source.add(Triple(sale, EX.hasPromoAmount, Literal(41)))
                session.sync()
                after = Cube(executor.evaluate(query).answer, query)
                assert executor.last_backend == "process"
        assert after.same_cells(oracle())
        assert not after.same_cells(cube)

    def test_process_pool_rebuilds_after_instance_mutation(self, example2_instance):
        query = make_sites_query("count")
        with _executor(example2_instance, workers=2, shard_count=2, backend="process") as executor:
            before = Cube(executor.evaluate(query).answer, query)
            user9 = EX.term("user9")
            example2_instance.add(Triple(user9, RDF.term("type"), EX.Blogger))
            example2_instance.add(Triple(user9, EX.hasAge, Literal(35)))
            example2_instance.add(Triple(user9, EX.livesIn, EX.term("NY")))
            post = EX.term("p9")
            example2_instance.add(Triple(user9, EX.wrotePost, post))
            example2_instance.add(Triple(post, EX.postedOn, EX.term("s3")))
            oracle = Cube(AnalyticalQueryEvaluator(example2_instance).answer(query), query)
            after = Cube(executor.evaluate(query).answer, query)
        assert after.same_cells(oracle)
        assert not after.same_cells(before)  # workers saw the update

    def test_range_dice_reaches_process_workers(self, example2_instance):
        """A range restriction (the paper's Example 4 ``20 ≤ d_age ≤ 30``)
        keeps its bounds as data, so the query pickles."""
        base = make_sites_query("count")
        sigma = base.sigma.restrict("dage", DimensionRestriction.to_range(20, 30))
        query = base.with_sigma(sigma, name="Q_range")
        oracle = Cube(AnalyticalQueryEvaluator(example2_instance).answer(query), query)
        with _executor(example2_instance, workers=2, shard_count=2) as executor:
            cube = Cube(executor.evaluate(query).answer, query)
            assert executor.last_backend == "process"
            assert executor.stats.fallbacks == []
        assert cube.same_cells(oracle)

    def test_slice_after_range_dice_reaches_process_workers(self, example2_instance):
        """Dicing or slicing a range-diced dimension again conjoins the two
        restrictions into data (values ∩ range is a value set, range ∩ range
        the tighter range), so the query still pickles."""
        from repro.olap.operations import Dice, Slice

        diced = Dice({"dage": (20, 40)}).apply(make_sites_query("count"))
        queries = (Slice("dage", Literal(28)).apply(diced), Dice({"dage": (25, 60)}).apply(diced))
        with _executor(example2_instance, workers=2, shard_count=2) as executor:
            for query in queries:
                oracle = Cube(AnalyticalQueryEvaluator(example2_instance).answer(query), query)
                assert Cube(executor.evaluate(query).answer, query).same_cells(oracle)
                assert executor.last_backend == "process"
            assert executor.stats.dispatches == {"process": 2}
            assert executor.stats.fallbacks == []

    def test_closure_aggregate_runs_on_threads_without_breaking_the_pool(
        self, example2_instance
    ):
        """A mergeable custom aggregate whose state functions are closures
        cannot cross a process boundary: that query alone runs on threads,
        and the pool keeps serving the queries that pickle."""
        offset = 0

        def make(values):
            return len(values) + offset

        custom = AggregateFunction.from_states(
            "count_closure", make, lambda a, b: a + b, lambda state, value=None: state,
            distributive=True, numeric_only=False, raw_states=True,
        )
        base = make_sites_query("count")
        query = AnalyticalQuery(base.classifier, base.measure, custom, name="Q_closure")
        oracle = Cube(AnalyticalQueryEvaluator(example2_instance).answer(query), query)
        with _executor(example2_instance, workers=2, shard_count=2, backend="process") as executor:
            assert Cube(executor.evaluate(query).answer, query).same_cells(oracle)
            assert executor.last_backend == "thread"
            assert executor.stats.fallbacks == [("process", "thread", "aggregate not picklable")]
            executor.evaluate(base)
            assert executor.last_backend == "process"
            assert executor.stats.process_failures == 0

    def test_non_mergeable_aggregate_falls_back_to_serial(self, example2_instance):
        registry = default_registry()
        name = "median_test_parallel_executor"
        if name not in registry:
            registry.register(
                AggregateFunction(
                    name, lambda values: sorted(values)[len(values) // 2], distributive=False
                )
            )
        query = make_sites_query(name)
        oracle = Cube(AnalyticalQueryEvaluator(example2_instance).answer(query), query)
        with _executor(example2_instance, workers=2, shard_count=3, backend="thread") as executor:
            assert not executor.supports(query)
            cube = Cube(executor.evaluate(query).answer, query)
            assert executor.last_backend == "fallback-serial"
        assert cube.same_cells(oracle)

    def test_sliced_query_matches_serial(self, example2_instance):
        from repro.olap.operations import Slice

        query = Slice("dcity", EX.term("NY")).apply(make_sites_query("count"))
        oracle = Cube(AnalyticalQueryEvaluator(example2_instance).answer(query), query)
        with _executor(example2_instance, workers=2, shard_count=3, backend="thread") as executor:
            cube = Cube(executor.evaluate(query).answer, query)
        assert cube.same_cells(oracle)

    def test_invalid_configuration_raises(self, example2_instance):
        evaluator = AnalyticalQueryEvaluator(example2_instance)
        with pytest.raises(ValueError):
            ParallelExecutor(evaluator, workers=0)
        with pytest.raises(ValueError):
            ParallelExecutor(evaluator, workers=2, shard_count=0)
        with pytest.raises(ValueError):
            ParallelExecutor(evaluator, workers=2, backend="gpu")


class TestParallelCostModel:
    def test_dispatch_overhead_keeps_tiny_instances_serial(self, example2_instance):
        costs = _priced(example2_instance, make_sites_query("count"), workers=4, shard_count=4)
        assert costs["parallel"] > costs["scratch"]

    def test_more_workers_price_lower_until_overhead_dominates(self, example2_instance):
        query = make_sites_query("count")
        same_shards = [
            _priced(example2_instance, query, workers=workers, shard_count=8)["parallel"]
            for workers in (1, 2, 4, 8)
        ]
        assert same_shards == sorted(same_shards, reverse=True)


class TestMixedTypeGroupSemantics:
    """Groups undefined under serial γ must stay undefined for every sharding."""

    def test_poisoned_group_is_dropped_for_every_split(self):
        from repro.algebra.grouping import POISONED_GROUP, group_aggregate

        rows = [("a", "abc"), ("a", 5), ("b", 7)]
        serial = group_aggregate(Relation(("d", "v"), rows), by=("d",), measure="v", function="sum")
        assert sorted(serial.rows) == [("b", 7)]  # group "a" is undefined and omitted
        for cut in range(len(rows) + 1):
            parts = [Relation(("d", "v"), rows[:cut]), Relation(("d", "v"), rows[cut:])]
            merged = merge_group_states(
                (group_partial_states(part, by=("d",), measure="v", function="sum") for part in parts),
                "sum",
            )
            assert sorted(finalize_group_states(merged, "sum", ("d", "v"))) == [("b", 7)], cut
            if 0 < cut < 3:  # the mixed group really was split across parts
                assert merged[("a",)] is POISONED_GROUP

    def test_poison_sentinel_survives_pickling_by_identity(self):
        import pickle

        from repro.algebra.grouping import POISONED_GROUP

        assert pickle.loads(pickle.dumps(POISONED_GROUP)) is POISONED_GROUP

    def test_executor_omits_undefined_groups_like_serial(self):
        # Two facts of one group, one with a non-numeric measure, forced
        # into different shards (one shard per term id): the parallel sum
        # must omit the group exactly as the serial engine does.
        from repro.bgp.query import BGPQuery
        from repro.rdf.triples import TriplePattern
        from repro.rdf import Graph

        graph = Graph()
        rdf_type = RDF.term("type")
        for name, value in (("f1", Literal("abc")), ("f2", Literal(5)), ("f3", Literal(9))):
            fact = EX.term(name)
            graph.add(Triple(fact, rdf_type, EX.Fact))
            graph.add(Triple(fact, EX.hasD, EX.term("d1" if name != "f3" else "d2")))
            graph.add(Triple(fact, EX.hasV, value))
        x, d, v = Variable("x"), Variable("d"), Variable("v")
        classifier = BGPQuery([x, d], [TriplePattern(x, rdf_type, EX.Fact), TriplePattern(x, EX.hasD, d)], name="c")
        measure = BGPQuery([x, v], [TriplePattern(x, EX.hasV, v)], name="m")
        query = AnalyticalQuery(classifier, measure, "sum", name="Q_mixed")

        serial = Cube(AnalyticalQueryEvaluator(graph).answer(query), query)
        assert len(serial) == 1  # only d2 survives
        with _executor(
            graph, workers=2, shard_count=len(graph.dictionary), backend="thread"
        ) as executor:
            cube = Cube(executor.evaluate(query).answer, query)
        assert cube.same_cells(serial)


class TestErrorPropagation:
    def test_evaluation_errors_propagate_and_do_not_degrade_the_backend(self, example4_instance):
        # min over a group mixing strings and numbers raises TypeError on
        # every backend; the process pool must stay healthy afterwards.
        # (user1's 28/Madrid group already holds word counts 100 and 120.)
        post = EX.term("post_mixed")
        example4_instance.add(Triple(post, RDF.term("type"), EX.BlogPost))
        example4_instance.add(Triple(EX.term("user1"), EX.wrotePost, post))
        example4_instance.add(Triple(post, EX.hasWordCount, Literal("not a number")))
        query = make_words_query("min")
        with pytest.raises(TypeError):
            AnalyticalQueryEvaluator(example4_instance).answer(query)
        with _executor(example4_instance, workers=2, shard_count=2, backend="process") as executor:
            # user1's rows all live in one shard, so the TypeError is raised
            # inside a worker and must re-surface through future.result().
            with pytest.raises(TypeError):
                executor.evaluate(query)
            good = make_words_query("count")
            oracle = Cube(AnalyticalQueryEvaluator(example4_instance).answer(good), good)
            assert Cube(executor.evaluate(good, shard_count=2).answer, good).same_cells(oracle)
            assert executor.last_backend == "process"  # not permanently degraded

    def test_evaluate_rejects_zero_shard_override(self, example2_instance):
        with _executor(example2_instance, workers=2, shard_count=2, backend="serial") as executor:
            with pytest.raises(ValueError):
                executor.evaluate(make_sites_query("count"), shard_count=0)


class TestExecutorStatsAndAttachMode:
    """Dispatch bookkeeping: no silent backend mixing, snapshot attach mode."""

    def test_dispatches_are_counted_per_backend(self, example2_instance):
        query = make_sites_query("count")
        with _executor(example2_instance, workers=1, shard_count=2, backend="serial") as executor:
            executor.evaluate(query)
            executor.evaluate(query)
            assert executor.stats.dispatches == {"serial": 2}
            assert executor.stats.total_dispatches == 2
            assert executor.stats.process_failures == 0
            assert executor.stats.fallbacks == []

    def test_unsupported_aggregate_fallback_is_recorded(self, example2_instance):
        registry = default_registry()
        name = "median_test_executor_stats"
        if name not in registry:
            registry.register(
                AggregateFunction(
                    name, lambda values: sorted(values)[len(values) // 2], distributive=False
                )
            )
        query = make_sites_query(name)
        with _executor(example2_instance, workers=2, shard_count=2, backend="thread") as executor:
            executor.evaluate(query)
            assert executor.stats.dispatches.get("fallback-serial") == 1
            assert any(reason == "unsupported aggregate" for _, _, reason in executor.stats.fallbacks)

    def test_rolled_query_fallback_names_the_roll_up(self, example2_instance):
        """A rolled query stays serial: its derived parents' negative ids are
        numbered per dictionary, so workers' ids would not match the merge's."""
        from repro.olap import DimensionHierarchy, RollUp

        hierarchy = DimensionHierarchy.banded([(0, 29, "young"), (30, 120, "senior")])
        query = RollUp("dage", hierarchy).apply(make_sites_query("count"))
        oracle = Cube(AnalyticalQueryEvaluator(example2_instance).answer(query), query)
        with _executor(example2_instance, workers=2, shard_count=2, backend="thread") as executor:
            assert not executor.supports(query)
            assert Cube(executor.evaluate(query).answer, query).same_cells(oracle)
            assert executor.stats.fallbacks == [("thread", "serial", "rolled-up query")]

    def test_broken_pool_failure_is_counted_and_surfaced(self, example2_instance, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        query = make_sites_query("count")
        with _executor(example2_instance, workers=2, shard_count=2, backend="process") as executor:
            def explode(*args, **kwargs):
                raise BrokenProcessPool("simulated pool death")

            monkeypatch.setattr(executor, "_dispatch_process", explode)
            oracle = Cube(AnalyticalQueryEvaluator(example2_instance).answer(query), query)
            cube = Cube(executor.evaluate(query).answer, query)
            assert cube.same_cells(oracle)
            assert executor.last_backend == "thread"
            assert executor.stats.process_failures == 1
            assert ("process", "thread", "BrokenProcessPool") in executor.stats.fallbacks
            assert "BrokenProcessPool" in executor.stats.summary()

    def test_heap_graph_attach_mode_is_pickled(self, example2_instance):
        with _executor(example2_instance, workers=2, shard_count=2) as executor:
            assert executor.attach_mode == "pickled-graph"

    def test_snapshot_graph_attach_mode_is_mmap(self, example2_instance, tmp_path):
        pytest.importorskip("numpy")
        from repro.storage import load_snapshot, save_snapshot

        path = str(tmp_path / "example2.snap")
        save_snapshot(example2_instance, path)
        mapped = load_snapshot(path, mmap=True)
        query = make_sites_query("count")
        oracle = Cube(AnalyticalQueryEvaluator(example2_instance).answer(query), query)
        with _executor(mapped, workers=2, shard_count=3, backend="process") as executor:
            assert executor.attach_mode == "snapshot-mmap"
            cube = Cube(executor.evaluate(query).answer, query)
            assert executor.last_backend == "process"
            assert executor.stats.dispatches == {"process": 1}
        assert cube.same_cells(oracle)

    def test_fallbacks_surface_in_plan_explain(self, example2_instance, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        def explode(*args, **kwargs):
            raise BrokenProcessPool("simulated pool death")

        with OLAPSession(
            example2_instance, workers=2, shard_count=2, parallel_backend="process"
        ) as session:
            monkeypatch.setattr(session.parallel, "_dispatch_process", explode)
            plain = make_sites_query("count")
            session.parallel.evaluate(plain)  # triggers the thread downgrade
            from repro.olap.operations import DrillOut

            operation = DrillOut("dage")
            plan = session.planner.plan(plain, operation, operation.apply(plain))
            explanation = plan.explain()
            assert "pickled-graph attach" in explanation
            assert "fallback" in explanation

    def test_dispatch_cost_tracks_attach_mode(self, example2_instance, tmp_path):
        pytest.importorskip("numpy")
        from repro.storage import load_snapshot, save_snapshot

        path = str(tmp_path / "example2.snap")
        save_snapshot(example2_instance, path)
        mapped = load_snapshot(path, mmap=True)
        model = CostModel()
        assert model.dispatch_cost(example2_instance) == model.dispatch_shard_cost
        assert model.dispatch_cost(mapped) == model.mmap_dispatch_shard_cost
        assert model.mmap_dispatch_shard_cost < model.dispatch_shard_cost

    def test_mmap_dispatch_prices_parallel_cheaper(self, example2_instance):
        query = make_sites_query("count")
        mapped = example2_instance.copy()
        mapped.snapshot_path = "example2.snap"  # priced only: no worker attaches
        pickled = _priced(example2_instance, query, workers=2, shard_count=4)
        mmap = _priced(mapped, query, workers=2, shard_count=4)
        assert mmap["parallel"] < pickled["parallel"]
        assert mmap["scratch"] == pickled["scratch"]


def _split_distinct_instance():
    """Bloggers with word-counted posts.  The first- and the last-encoded
    blogger share the (28, Madrid) group and write ``"28"^^xsd:integer`` and
    ``"28.0"^^xsd:decimal``: two ids with one comparable value, which two
    shards put on different sides of the pipe."""
    from repro.rdf import Graph
    from repro.rdf.terms import XSD_DECIMAL, XSD_INTEGER

    graph = Graph()

    def blogger(name, age, city, word_counts):
        user = EX.term(name)
        graph.add(Triple(user, RDF.term("type"), EX.Blogger))
        graph.add(Triple(user, EX.hasAge, Literal(age)))
        graph.add(Triple(user, EX.livesIn, EX.term(city)))
        for index, words in enumerate(word_counts):
            post = EX.term(f"{name}/post{index}")
            graph.add(Triple(user, EX.wrotePost, post))
            graph.add(Triple(post, EX.hasWordCount, words))

    blogger("first", 28, "Madrid", [Literal("28", XSD_INTEGER)])
    for index in range(24):
        words = [Literal(10 * (index % 4) + extra) for extra in range(index % 3 + 1)]
        blogger(f"user{index}", (28, 35, 41)[index % 3], ("Madrid", "NY")[index % 2], words)
    blogger("last", 28, "Madrid", [Literal("28.0", XSD_DECIMAL)])
    return graph


class TestProcessBackendDifferential:
    """What crosses the pipe: worker processes ship each shard's ``pres(Q)``
    and γ states, and the merge must equal the serial evaluator."""

    @pytest.mark.parametrize("attach", ["pickled-graph", "snapshot-mmap"])
    def test_process_shards_equal_the_serial_evaluator(self, attach, tmp_path):
        graph = _split_distinct_instance()
        if attach == "snapshot-mmap":
            pytest.importorskip("numpy")
            from repro.storage import load_snapshot, save_snapshot

            path = str(tmp_path / "split.snap")
            save_snapshot(graph, path)
            graph = load_snapshot(path, mmap=True)
        first, last = (graph.dictionary.lookup(EX.term(name)) for name in ("first", "last"))
        shards = graph.partition(2)
        assert shards[0].contains(first) and shards[1].contains(last)
        serial = AnalyticalQueryEvaluator(graph)
        young_or_middle = DimensionRestriction.to_values([Literal(28), Literal(35)])
        with ParallelExecutor(serial, workers=2, shard_count=2, backend="process") as executor:
            assert executor.attach_mode == attach
            for aggregate in ALL_AGGREGATES:
                base = make_words_query(aggregate)
                diced = base.with_sigma(base.sigma.restrict("dage", young_or_middle), name="Q_diced")
                for query in (base, diced):
                    merged = executor.evaluate(query)
                    assert executor.last_backend == "process"
                    expected = serial.evaluate(query)
                    cube = Cube(merged.answer, query)
                    assert cube.same_cells(Cube(expected.answer, query)), (aggregate, query.name)
                    if aggregate == "count_distinct":
                        assert cube.cell(28, "http://example.org/Madrid") == 3  # {0, 20, 28 = 28.0}
                    _assert_pres_equal_modulo_keys(merged.partial, expected.partial)
                    assert merged.partial.storage.dictionary is graph.dictionary
            assert executor.stats.fallbacks == []


def _assert_pres_equal_modulo_keys(merged, expected):
    """Bag-equal ``pres(Q)`` but for the opaque keys, in the serial storage;
    a columnar one holds plain arrays (a worker's may be ``np.memmap`` views)."""
    assert merged.columns == expected.columns
    keyless = [name for name in expected.columns if name != KEY_COLUMN]
    assert project(merged.storage, keyless).bag_equal(project(expected.storage, keyless))
    keys = merged.storage.column_values(KEY_COLUMN)
    assert len(keys) == len(set(keys))  # globally distinct: disjoint strides
    assert type(merged.storage) is type(expected.storage)
    if hasattr(merged.storage, "column_array"):
        import numpy as np

        for name in merged.columns:
            assert type(merged.storage.column_array(name)) is np.ndarray, name


class TestColumnarShardsStayInArrays:
    @pytest.mark.parametrize("backend,workers", [("serial", 1), ("thread", 2)])
    def test_every_aggregate_merges_without_a_row_conversion(
        self, example4_instance, backend, workers
    ):
        pytest.importorskip("numpy")
        from repro.algebra.columnar import ROW_CONVERSIONS, ColumnarIdRelation

        evaluator = AnalyticalQueryEvaluator(example4_instance, engine="columnar")
        with ParallelExecutor(evaluator, workers=workers, shard_count=3, backend=backend) as executor:
            before = ROW_CONVERSIONS.copy()
            results = [executor.evaluate(make_words_query(name)) for name in ALL_AGGREGATES]
            assert ROW_CONVERSIONS == before
            assert executor.stats.dispatches == {backend: len(ALL_AGGREGATES)}
        for name, result in zip(ALL_AGGREGATES, results):
            assert isinstance(result.partial.storage, ColumnarIdRelation), name
            oracle = evaluator.evaluate(make_words_query(name))
            assert Cube(result.answer, result.query).same_cells(Cube(oracle.answer, oracle.query))
