"""GTEA evaluation engine (S6 in DESIGN.md) — the paper's Section 4.

Evaluation routes through the compiler of :mod:`repro.plan`
(normalize → logical plan → physical plan) before execution.  Two entry
points:

* :class:`GTEA` — one evaluator over one graph.  Compiles queries
  inline (``engine.compile(query)`` exposes the plan) and executes
  compiled plans; accepts any registered reachability index, including
  ``index="auto"`` (the cost model's choice).  The 3-hop index gets the
  paper's chain/contour pruning fast path, every other index the
  generic fallback; unsatisfiable queries short-circuit to O(1).  GTEA
  is the one executor: the TwigStackD baseline lives in
  :mod:`repro.baselines` for the paper's comparisons only.
* :class:`QuerySession` — a serving layer above :class:`GTEA`: a pool of
  lazily built indexes plus compiled-plan/candidate/result caches keyed
  by canonical query fingerprints, with batch evaluation
  (:meth:`QuerySession.evaluate_many`) that deduplicates repeated
  queries and :meth:`QuerySession.explain` for plan inspection.  Use it
  whenever more than one query hits the same graph.

:class:`ParallelExecutor` (:mod:`repro.engine.parallel`) shards the
downward prune phase across a worker pool — byte-identical to serial
execution — and is wired in with ``QuerySession(parallel=...)``.
"""

from .cache import CacheCounters, LRUCache
from .gtea import GTEA, evaluate_gtea
from .matching_graph import MatchingGraph, build_matching_graph
from .operators import (
    BuildMatchingGraph,
    CandidateScan,
    CollectResults,
    ConstantEmpty,
    DownwardPrune,
    ExecutionState,
    Operator,
    OperatorStats,
    UpwardPrune,
    build_gtea_operators,
    executed_downward_order,
    run_pipeline,
)
from .parallel import ParallelExecutor, ParallelOptions
from .prime import compute_prime_subtree, shrink_prime_subtree
from .prune import PruningContext, prune_downward, prune_upward
from .results import collect_results
from .session import BatchResult, QueryPlan, QuerySession
from .stats import EvaluationStats

__all__ = [
    "BatchResult",
    "BuildMatchingGraph",
    "CacheCounters",
    "CandidateScan",
    "CollectResults",
    "ConstantEmpty",
    "DownwardPrune",
    "EvaluationStats",
    "ExecutionState",
    "GTEA",
    "LRUCache",
    "MatchingGraph",
    "Operator",
    "OperatorStats",
    "ParallelExecutor",
    "ParallelOptions",
    "PruningContext",
    "QueryPlan",
    "QuerySession",
    "UpwardPrune",
    "build_gtea_operators",
    "build_matching_graph",
    "collect_results",
    "compute_prime_subtree",
    "evaluate_gtea",
    "executed_downward_order",
    "prune_downward",
    "prune_upward",
    "run_pipeline",
    "shrink_prime_subtree",
]
