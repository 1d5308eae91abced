"""OLAP operations for RDF analytics and their view-based rewritings.

* :mod:`repro.olap.operations` — SLICE, DICE, DRILL-OUT, DRILL-IN as query
  transformations;
* :mod:`repro.olap.auxiliary` — the auxiliary DRILL-IN query (Definition 6);
* :mod:`repro.olap.rewriting` — Proposition 1, Algorithm 1, Algorithm 2, and
  :class:`OLAPRewriter`, which runs them;
* :mod:`repro.olap.cube` — the cube result abstraction;
* :mod:`repro.olap.cache` — the bounded canonical-form result cache;
* :mod:`repro.olap.maintenance` — incremental refresh of cached results
  from triple-level graph deltas;
* :mod:`repro.olap.parallel` — shard-partitioned parallel evaluation with
  mergeable partial aggregates;
* :mod:`repro.olap.planner` — cost-based strategy planning per operation;
* :mod:`repro.olap.calibration` — :class:`CostModel` and the least-squares
  fit of its constants from recorded runtimes;
* :mod:`repro.olap.advisor` — workload-driven materialize/pin/evict
  recommendations mined from a session's history;
* :mod:`repro.olap.session` — :class:`OLAPSession`, the top-level API.
"""

from repro.olap.advisor import AdvisorReport, Recommendation, WorkloadAdvisor, apply_recommendations
from repro.olap.auxiliary import auxiliary_join_columns, build_auxiliary_query
from repro.olap.calibration import CalibrationSample, CostModel, fit_cost_model
from repro.olap.cache import (
    CacheEntry,
    CacheStats,
    ResultCache,
    canonical_query_key,
)
from repro.olap.cube import Cube
from repro.olap.maintenance import DeltaMaintainer
from repro.olap.parallel import ExecutorStats, ParallelExecutor
from repro.olap.planner import OLAPPlanner, Plan, PlanCandidate
from repro.olap.hierarchy import DimensionHierarchy
from repro.olap.operations import (
    Dice,
    DrillDown,
    DrillIn,
    DrillOut,
    OLAPOperation,
    RollUp,
    Slice,
    compose,
)
from repro.olap.rewriting import (
    OLAPRewriter,
    RewritingResult,
    answer_from_rolled_partial,
    drill_in_from_partial,
    drill_in_partial,
    drill_out_from_answer_naive,
    drill_out_from_partial,
    drill_out_partial,
    select_partial,
    slice_dice_from_answer,
)
from repro.olap.session import OLAPSession, TransformationRecord

__all__ = [
    "OLAPOperation",
    "Slice",
    "Dice",
    "DrillOut",
    "DrillIn",
    "RollUp",
    "DrillDown",
    "compose",
    "build_auxiliary_query",
    "auxiliary_join_columns",
    "slice_dice_from_answer",
    "drill_out_from_partial",
    "drill_in_from_partial",
    "drill_out_from_answer_naive",
    "select_partial",
    "drill_out_partial",
    "drill_in_partial",
    "DimensionHierarchy",
    "answer_from_rolled_partial",
    "OLAPRewriter",
    "RewritingResult",
    "ResultCache",
    "CacheEntry",
    "CacheStats",
    "canonical_query_key",
    "DeltaMaintainer",
    "ParallelExecutor",
    "ExecutorStats",
    "OLAPPlanner",
    "Plan",
    "PlanCandidate",
    "CostModel",
    "CalibrationSample",
    "fit_cost_model",
    "WorkloadAdvisor",
    "AdvisorReport",
    "Recommendation",
    "apply_recommendations",
    "Cube",
    "OLAPSession",
    "TransformationRecord",
]
