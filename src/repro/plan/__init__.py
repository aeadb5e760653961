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

from .codegen import (
    CodegenError,
    CompiledPlanFunction,
    analyze_plan,
    compile_plan,
)
from .compile import CompiledPlan, compile_query
from .route import ExecutionRoute, codegen_refusal, decide_route
from .cost import (
    AUTO_CLOSURE_MAX_BYTES,
    AUTO_NEAR_TREE_RATIO,
    PARTIAL_CONE_EXPANSION,
    PARTIAL_FOOTPRINT_FRACTION,
    IndexChoice,
    choose_index,
    choose_index_detail,
    choose_scoped_index,
    closure_fill_units,
    estimate_candidates,
    index_build_units,
    scoped_index_key,
)
from .logical import CandidateSource, LogicalPlan, PruneObligation, build_logical_plan
from .normalize import NormalizedQuery, normalize
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
    "CodegenError",
    "CompiledPlan",
    "CompiledPlanFunction",
    "ExecutionRoute",
    "IndexChoice",
    "LogicalPlan",
    "NormalizedQuery",
    "PARTIAL_CONE_EXPANSION",
    "PARTIAL_FOOTPRINT_FRACTION",
    "PhysicalOperator",
    "PhysicalPlan",
    "PruneObligation",
    "analyze_plan",
    "build_logical_plan",
    "build_operator_pipeline",
    "build_physical_plan",
    "choose_index",
    "choose_index_detail",
    "choose_scoped_index",
    "closure_fill_units",
    "codegen_refusal",
    "compile_plan",
    "compile_query",
    "decide_route",
    "estimate_candidates",
    "index_build_units",
    "normalize",
    "scoped_index_key",
]
