"""Query compilation (S9): normalize → logical plan → physical plan.

The optimizer layer between :mod:`repro.query` and :mod:`repro.engine`.
:func:`compile_query` turns a GTPQ into a :class:`CompiledPlan` — an
inspectable artifact whose ``explain()`` shows the rewrites of the
normalize phase (simplification, Theorem-1 satisfiability, Algorithm-1
minimization), the logical IR (candidate sources, prune obligations,
prune order) and the physical decisions (reachability index, operator
pipeline).  :class:`repro.engine.GTEA` executes compiled plans;
:class:`repro.engine.QuerySession` caches them per query fingerprint.
"""

from .compile import CompiledPlan, compile_normalized, compile_query
from .cost import (
    AUTO_CLOSURE_MAX_BYTES,
    AUTO_NEAR_TREE_RATIO,
    PARTIAL_FOOTPRINT_FRACTION,
    choose_index,
    estimate_candidates,
)
from .logical import CandidateSource, LogicalPlan, PruneObligation, build_logical_plan
from .normalize import NormalizedQuery, NormalizeOutcome, normalize, normalize_key
from .physical import (
    PhysicalOperator,
    PhysicalPlan,
    build_operator_pipeline,
    build_physical_plan,
)

__all__ = [
    "AUTO_CLOSURE_MAX_BYTES",
    "AUTO_NEAR_TREE_RATIO",
    "CandidateSource",
    "CompiledPlan",
    "LogicalPlan",
    "NormalizeOutcome",
    "NormalizedQuery",
    "PARTIAL_FOOTPRINT_FRACTION",
    "PhysicalOperator",
    "PhysicalPlan",
    "PruneObligation",
    "build_logical_plan",
    "build_operator_pipeline",
    "build_physical_plan",
    "choose_index",
    "compile_normalized",
    "compile_query",
    "estimate_candidates",
    "normalize",
    "normalize_key",
]
