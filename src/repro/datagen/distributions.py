"""Random value distributions for the synthetic data generators.

All generators take an explicit :class:`random.Random` instance so that
datasets are fully deterministic given a seed — a requirement for
reproducible benchmarks and property tests.
"""

from __future__ import annotations

import random
from typing import Sequence, TypeVar

__all__ = ["zipf_index", "pick_zipf", "pick_uniform", "multi_valued_count"]

T = TypeVar("T")


def zipf_index(rng: random.Random, size: int, exponent: float = 1.0) -> int:
    """Sample an index in ``[0, size)`` following a (truncated) Zipf law.

    The classical inverse-CDF method over the finite harmonic weights is
    used; ``exponent=0`` degenerates to the uniform distribution.
    """
    if size <= 0:
        raise ValueError("size must be positive")
    if exponent <= 0:
        return rng.randrange(size)
    weights = [1.0 / ((rank + 1) ** exponent) for rank in range(size)]
    total = sum(weights)
    threshold = rng.random() * total
    cumulative = 0.0
    for index, weight in enumerate(weights):
        cumulative += weight
        if cumulative >= threshold:
            return index
    return size - 1


def pick_zipf(rng: random.Random, values: Sequence[T], exponent: float = 1.0) -> T:
    """Pick one element of ``values`` with Zipf-distributed popularity."""
    return values[zipf_index(rng, len(values), exponent)]


def pick_uniform(rng: random.Random, values: Sequence[T]) -> T:
    """Pick one element uniformly at random."""
    return values[rng.randrange(len(values))]


def multi_valued_count(rng: random.Random, mean: float, maximum: int = 10) -> int:
    """Sample how many values a fact gets for a multi-valued property.

    Returns at least 1.  ``mean`` is the target average fan-out; the sample
    is drawn from a geometric-like distribution truncated at ``maximum`` so
    that a mean of 1.0 yields exactly one value for every fact (the
    relational, single-valued case) and larger means produce occasional
    bursts — the shape that makes the paper's drill-out subtlety visible.
    """
    if mean <= 1.0:
        return 1
    count = 1
    # Probability of adding one more value, chosen so the expectation is ~mean.
    probability = 1.0 - 1.0 / mean
    while count < maximum and rng.random() < probability:
        count += 1
    return count
