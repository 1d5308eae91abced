"""EXP-8 (ablation): cost of materializing pres(Q), ans(Q) and int(Q).

The paper's approach assumes pres(Q) is materialized "as part of the effort
for evaluating Q"; this benchmark quantifies that overhead by timing the
three materialization levels separately, plus the full evaluate() call that
produces answer + partial together.  The companion size measurements (rows
of each structure vs. instance triples) are reported by
``experiment_pres_storage`` and recorded in EXPERIMENTS.md.
"""

import pytest

from repro.analytics import AnalyticalQueryEvaluator
from repro.bench.workloads import SCALES, bench_scale_from_env
from repro.datagen.generic import GenericConfig, generic_dataset

_STATE = {}


def _prepared():
    if not _STATE:
        parameters = SCALES[bench_scale_from_env()]
        config = GenericConfig(
            facts=int(parameters["facts"]), dimensions=3, values_per_dimension=1.4
        )
        dataset = generic_dataset(config)
        _STATE["evaluator"] = AnalyticalQueryEvaluator(dataset.instance)
        _STATE["query"] = dataset.query
        _STATE["instance_size"] = len(dataset.instance)
    return _STATE["evaluator"], _STATE["query"], _STATE["instance_size"]


def test_materialize_answer_only(benchmark):
    evaluator, query, size = _prepared()
    benchmark.extra_info["instance_triples"] = size
    result = benchmark(lambda: evaluator.answer(query))
    assert len(result) > 0


def test_materialize_partial_result(benchmark):
    evaluator, query, size = _prepared()
    benchmark.extra_info["instance_triples"] = size
    result = benchmark(lambda: evaluator.partial_result(query))
    assert len(result) > 0


def test_materialize_answer_and_partial(benchmark):
    evaluator, query, size = _prepared()
    benchmark.extra_info["instance_triples"] = size
    result = benchmark(lambda: evaluator.evaluate(query))
    assert len(result.partial) >= len(result.answer) > 0


def test_materialize_intermediary_result(benchmark):
    evaluator, query, size = _prepared()
    benchmark.extra_info["instance_triples"] = size
    result = benchmark(lambda: evaluator.intermediary_result(query))
    assert len(result) > 0
