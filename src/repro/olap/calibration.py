"""Runtime-calibrated cost model for the OLAP planner.

The planner prices every answering strategy in an abstract "rows touched"
unit: per-row weights for σ-selection, grouping and joins over materialized
inputs (fitted from a replay, see :class:`CostModel`), a per-cell weight for
serving cached answers, per-engine multipliers, and the merge / dispatch
overheads of the refresh and parallel paths (hand-set).  Constants that are
wrong in *relative* terms misrank strategies — and the planner only needs
relative correctness to rank them.

This module closes the loop from observed runtimes back into planning:

* :class:`CostModel` holds every pricing constant.  This module defines
  and fits them; :class:`~repro.olap.planner.OLAPPlanner`, which holds
  every cost formula, is their only reader.  An uncalibrated session plans
  with the defaults.

* :func:`fit_cost_model` performs a least-squares fit over the
  ``(predicted cost, observed execute seconds, strategy)`` samples a
  session's :attr:`~repro.olap.session.OLAPSession.history` records.
  Samples are grouped into strategy *families* that share pricing
  constants (instance evaluation, materialized-input reuse, cached
  serving, delta refresh, parallel dispatch); each family gets a
  through-origin least-squares slope — seconds per predicted row — and
  the family's constants are rescaled by its slope *relative to the
  instance-evaluation family*, which keeps the model in the same
  rows-touched unit while correcting the relative weights the planner
  actually ranks by.

Only **execute** time feeds the fit (see
:attr:`~repro.olap.session.TransformationRecord.execute_seconds`): planner
enumeration time is recorded separately precisely so that a cache hit's
sample is the cost of *serving* the hit, not of pricing its alternatives.

Calibration caveats
-------------------
Timings on a loaded or single-CPU host are noisy, and a short history
yields few samples per family.  The fit therefore clamps every family's
scale factor into ``[MIN_SCALE, MAX_SCALE]`` and falls back to 1.0 (the
static constant) for families with no usable samples — a fitted model can
drift toward the truth but never become degenerate.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence

__all__ = [
    "CostModel",
    "CalibrationSample",
    "strategy_family",
    "samples_from_history",
    "fit_family_scales",
    "fit_cost_model",
]

#: Clamp bounds for every fitted family scale factor: guards against noisy
#: timings (1-CPU CI hosts) and tiny sample counts producing a model that
#: inverts every planning decision.
MIN_SCALE = 0.1
MAX_SCALE = 10.0

#: Strategy families sharing pricing constants.  ``instance`` is the
#: reference family: its slope defines the seconds-per-row unit and every
#: other family is scaled relative to it.
FAMILIES = ("instance", "reuse", "cached", "refresh", "parallel")


@dataclass(frozen=True)
class CostModel:
    """Every constant of the planner's rows-touched cost model.

    The defaults are the only place the constants are written down.  The
    reuse weights were fitted by replaying every distinct step of a
    ``nav_warm``-shaped episode through forced ``rewrite`` and ``scratch`` on
    both engines and rescaling by :func:`fit_family_scales` until the reuse
    scale came back ≈ 1; the others are hand-set.  Run-time fits (see
    :func:`fit_cost_model`) carry ``source="fitted"`` and their family scales.

    Examples
    --------
    >>> model = CostModel()
    >>> model.select_row_cost
    0.2
    >>> model.engine_multiplier("columnar")
    0.35
    >>> model.source
    'static'
    """

    #: Per-row weight of a σ-selection over a materialized answer/partial
    #: (``rewrite[slice-dice/ans]``, a deferred σ's realization).
    select_row_cost: float = 0.2
    #: Per-row weight of project + dedup + group-aggregate over a pres(Q)
    #: (DRILL-OUT, ROLL-UP per stage rolled, scratch's rolling pass).
    group_row_cost: float = 0.4
    #: Per-row weight of the pres(Q) side of the auxiliary join (Alg. 2).
    join_row_cost: float = 0.4
    #: Per-cell weight of returning an already-computed cached answer.
    cached_cell_cost: float = 0.05
    #: Flat base cost of any strategy (lookup / bookkeeping).
    base_cost: float = 1.0
    #: Per unifying (delta triple, body pattern) pair of a refresh probe.
    delta_probe_cost: float = 2.0
    #: Per cached pres(Q) row of the retain-or-recompute partition scan.
    pres_scan_cost: float = 0.25
    #: Per cached ans(Q) cell of the touched-group splice.
    refresh_cell_cost: float = 0.05
    #: Per merged γ state / answer cell of the parallel merge step.
    merge_cell_cost: float = 0.5
    #: Per-shard dispatch overhead when the pool pickles the graph.
    dispatch_shard_cost: float = 200.0
    #: Per-shard dispatch overhead when workers attach a snapshot by mmap.
    mmap_dispatch_shard_cost: float = 8.0
    #: Rows-touched multiplier of instance evaluation per engine (vectorized
    #: columnar kernels touch a row for a fraction of the interpreted loop's
    #: cost).  The columnar 0.35 is hand-set; ROADMAP item 6 refits it.
    engine_multipliers: Dict[str, float] = field(
        default_factory=lambda: {"rows": 1.0, "columnar": 0.35}
    )
    #: ``"static"`` for the defaults, ``"fitted"`` after run-time calibration.
    source: str = "static"
    #: Number of history samples the fit consumed (0 for static models).
    samples: int = 0
    #: Per-family scale factors applied by the fit (empty for static models).
    family_scales: Dict[str, float] = field(default_factory=dict)

    def engine_multiplier(self, engine: str) -> float:
        """The rows-touched multiplier for ``engine`` (1.0 when unknown)."""
        return self.engine_multipliers.get(engine, 1.0)

    def dispatch_cost(self, graph) -> float:
        """Per-shard dispatch cost for ``graph``'s worker attach mode."""
        if getattr(graph, "snapshot_path", None) is not None:
            return self.mmap_dispatch_shard_cost
        return self.dispatch_shard_cost

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form (JSON-friendly; embedded in ``AdvisorReport.as_dict``)."""
        return {
            "select_row_cost": self.select_row_cost,
            "group_row_cost": self.group_row_cost,
            "join_row_cost": self.join_row_cost,
            "cached_cell_cost": self.cached_cell_cost,
            "base_cost": self.base_cost,
            "delta_probe_cost": self.delta_probe_cost,
            "pres_scan_cost": self.pres_scan_cost,
            "refresh_cell_cost": self.refresh_cell_cost,
            "merge_cell_cost": self.merge_cell_cost,
            "dispatch_shard_cost": self.dispatch_shard_cost,
            "mmap_dispatch_shard_cost": self.mmap_dispatch_shard_cost,
            "engine_multipliers": dict(self.engine_multipliers),
            "source": self.source,
            "samples": self.samples,
            "family_scales": dict(self.family_scales),
        }

    def describe(self) -> str:
        """One-line human-readable summary (printed by ``demo --advise``)."""
        if self.source == "static":
            return "cost model: static defaults"
        scales = ", ".join(
            f"{family}x{scale:.2f}" for family, scale in sorted(self.family_scales.items())
        )
        return f"cost model: fitted from {self.samples} samples ({scales})"


@dataclass(frozen=True)
class CalibrationSample:
    """One ``(strategy, predicted cost, observed execute seconds)`` point."""

    strategy: str
    family: str
    predicted_cost: float
    seconds: float


def strategy_family(strategy: str) -> Optional[str]:
    """The pricing family of a recorded strategy name, or None.

    Planner strategies arrive as ``plan[...]``; the forced baselines and
    :meth:`~repro.olap.session.OLAPSession.execute` strategies are bare.
    Unknown strategies (e.g. custom experiment labels) yield None and are
    skipped by the fit.
    """
    if strategy.startswith("plan[") and strategy.endswith("]"):
        strategy = strategy[len("plan[") : -1]
    if strategy == "scratch" or strategy.startswith("scratch["):
        # scratch[saturate]: evaluation over the ρdf closure still touches
        # the instance — same pricing family as plain scratch.
        return "instance"
    if strategy == "parallel":
        return "parallel"
    if strategy.startswith("rewrite["):
        return "reuse"
    if strategy in ("cached", "cache", "cache[disk]"):
        return "cached"
    if strategy in ("refresh", "refresh-cached"):
        return "refresh"
    return None


def samples_from_history(history: Iterable) -> List[CalibrationSample]:
    """Extract calibration samples from a session's transformation history.

    Only records that carry the planner's ``estimated_cost`` detail can be
    samples — the fit needs the *predicted* cost next to the observed time.
    The observed time is the record's execute component
    (:attr:`~repro.olap.session.TransformationRecord.execute_seconds`);
    planner enumeration time is deliberately excluded so cache-hit samples
    measure serving, not planning.
    """
    samples: List[CalibrationSample] = []
    for record in history:
        predicted = record.details.get("estimated_cost")
        if predicted is None:
            continue
        family = strategy_family(record.strategy)
        if family is None:
            continue
        seconds = record.execute_seconds
        if seconds <= 0.0:
            seconds = record.seconds
        if predicted <= 0.0 or seconds <= 0.0:
            continue
        samples.append(
            CalibrationSample(record.strategy, family, float(predicted), float(seconds))
        )
    return samples


def _slope(samples: Sequence[CalibrationSample]) -> Optional[float]:
    """Least-squares slope through the origin of seconds vs. predicted cost.

    Minimizing ``Σ (t_i - m·c_i)²`` gives ``m = Σ c_i·t_i / Σ c_i²`` — the
    one-parameter least-squares fit, solvable exactly without numpy (the
    calibrator must work on row-engine-only installs).
    """
    denominator = sum(sample.predicted_cost ** 2 for sample in samples)
    if denominator <= 0.0:
        return None
    numerator = sum(sample.predicted_cost * sample.seconds for sample in samples)
    if numerator <= 0.0:
        return None
    return numerator / denominator


def fit_family_scales(
    samples: Sequence[CalibrationSample], min_samples: int = 1
) -> Dict[str, float]:
    """Per-family scale factors relative to the instance-evaluation family.

    Families without at least ``min_samples`` usable samples — or without a
    positive slope — keep factor 1.0 (their static constants).  When the
    reference ``instance`` family itself has no samples the first family
    with a slope becomes the reference, so a cache-hit-only history still
    normalizes consistently.
    """
    by_family: Dict[str, List[CalibrationSample]] = {}
    for sample in samples:
        by_family.setdefault(sample.family, []).append(sample)

    slopes: Dict[str, float] = {}
    for family, family_samples in by_family.items():
        if len(family_samples) < min_samples:
            continue
        slope = _slope(family_samples)
        if slope is not None:
            slopes[family] = slope

    reference = slopes.get("instance")
    if reference is None:
        for family in FAMILIES:
            if family in slopes:
                reference = slopes[family]
                break
    if reference is None or reference <= 0.0:
        return {}

    scales: Dict[str, float] = {}
    for family, slope in slopes.items():
        scales[family] = min(MAX_SCALE, max(MIN_SCALE, slope / reference))
    return scales


def fit_cost_model(
    history: Iterable,
    engine: str = "rows",
    base: Optional[CostModel] = None,
    min_samples: int = 1,
) -> CostModel:
    """Fit a :class:`CostModel` from a session's recorded history.

    Parameters
    ----------
    history:
        :class:`~repro.olap.session.TransformationRecord` sequence (e.g.
        ``session.history``).
    engine:
        The engine the history's instance-evaluating records ran on; its
        multiplier absorbs the instance family's scale so scratch stays the
        unit-defining strategy.
    base:
        Starting constants (defaults to the static model).
    min_samples:
        Minimum samples a family needs before its constants are rescaled.

    Returns the ``base`` model unchanged (aside from bookkeeping fields)
    when the history yields no usable samples — calibration can refine the
    planner but never leave it without a model.
    """
    base = base or CostModel()
    samples = samples_from_history(history)
    scales = fit_family_scales(samples, min_samples=min_samples)
    if not scales:
        return replace(base, source=base.source, samples=len(samples))

    reuse = scales.get("reuse", 1.0)
    cached = scales.get("cached", 1.0)
    refresh = scales.get("refresh", 1.0)
    parallel = scales.get("parallel", 1.0)
    multipliers = dict(base.engine_multipliers)
    # The instance family is the reference (scale 1.0 by construction), but
    # when the fit re-references off another family (no scratch samples)
    # its factor lands on the engine multiplier so instance-evaluating
    # candidates are still repriced relative to the new reference.
    instance = scales.get("instance", 1.0)
    multipliers[engine] = min(
        MAX_SCALE, max(MIN_SCALE / 10.0, base.engine_multiplier(engine) * instance)
    )
    return replace(
        base,
        select_row_cost=base.select_row_cost * reuse,
        group_row_cost=base.group_row_cost * reuse,
        join_row_cost=base.join_row_cost * reuse,
        cached_cell_cost=base.cached_cell_cost * cached,
        delta_probe_cost=base.delta_probe_cost * refresh,
        pres_scan_cost=base.pres_scan_cost * refresh,
        refresh_cell_cost=base.refresh_cell_cost * refresh,
        merge_cell_cost=base.merge_cell_cost * parallel,
        dispatch_shard_cost=base.dispatch_shard_cost * parallel,
        mmap_dispatch_shard_cost=base.mmap_dispatch_shard_cost * parallel,
        engine_multipliers=multipliers,
        source="fitted",
        samples=len(samples),
        family_scales=scales,
    )
