"""EXP-5 (Figure D): DICE cost as the retained fraction of dimension values varies.

The rewriting cost is one pass over ans(Q) regardless of selectivity; the
scratch cost shrinks slightly for very selective dices (fewer classifier
rows survive) but still pays the full classifier/measure evaluation.
Expected shape: the speedup is largest for selective dices and narrows as
the dice approaches the full cube.
"""

import pytest

from repro.bench.workloads import SCALES, bench_scale_from_env
from repro.datagen.generic import GenericConfig, generic_dataset
from repro.olap import Dice, OLAPSession
from repro.olap.rewriting import slice_dice_from_answer

SELECTIVITIES = [0.05, 0.25, 0.5, 1.0]

_STATE = {}


def _prepared():
    if not _STATE:
        parameters = SCALES[bench_scale_from_env()]
        config = GenericConfig(
            facts=int(parameters["facts"]), dimensions=2, dimension_cardinality=50
        )
        dataset = generic_dataset(config)
        session = OLAPSession(dataset.instance, dataset.schema)
        session.execute(dataset.query)
        dimension = dataset.query.dimension_names[0]
        values = sorted(
            session.materialized(dataset.query).answer.relation.distinct_values(dimension), key=repr
        )
        _STATE["session"] = session
        _STATE["query"] = dataset.query
        _STATE["dimension"] = dimension
        _STATE["values"] = values
    return _STATE["session"], _STATE["query"], _STATE["dimension"], _STATE["values"]


@pytest.mark.parametrize("selectivity", SELECTIVITIES)
def test_dice_rewrite_selectivity(benchmark, selectivity):
    session, query, dimension, values = _prepared()
    keep = max(1, int(len(values) * selectivity))
    operation = Dice({dimension: values[:keep]})
    transformed = operation.apply(query)
    answer = session.materialized(query).answer
    benchmark.extra_info["selectivity"] = selectivity
    benchmark(lambda: slice_dice_from_answer(answer, transformed))


@pytest.mark.parametrize("selectivity", SELECTIVITIES)
def test_dice_scratch_selectivity(benchmark, selectivity):
    session, query, dimension, values = _prepared()
    keep = max(1, int(len(values) * selectivity))
    operation = Dice({dimension: values[:keep]})
    transformed = operation.apply(query)
    benchmark.extra_info["selectivity"] = selectivity
    benchmark(lambda: session.evaluator.answer(transformed))
