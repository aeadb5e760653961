"""Shared batch execution: one downward prune per distinct subtree.

Consumes the :class:`~repro.plan.shared.BatchPlan` of the batch compiler.
The downward match set of a rooted subtree is query-context-free (it
depends only on the subtree below the node), so the executor walks the
batch's :class:`~repro.plan.shared.SharedPlanDAG` in topological order
and discharges each downward obligation exactly once — through
:func:`repro.engine.prune.downward_step`, fed with the already-shared
child results — then resumes every query's private pipeline (upward
prune → matching graph → CollectResults) from those sets via
:meth:`repro.engine.gtea.GTEA.execute_from_downward`.

An optional **subtree-result cache** (an
:class:`~repro.engine.cache.LRUCache` keyed by subtree fingerprint)
carries the materialized sets *across* executions; the session layer
owns it next to its plan/candidate/result caches, invalidates it on
graph version bumps, and hands the same cache to the single-query
pipeline (:class:`~repro.engine.operators.DownwardPrune`), so a batch
reuses what earlier single queries pruned and the other way round.
What the DAG adds on top is sharing within one batch that needs no
cache at all.

Stats attribution: the work of a shared sub-plan (candidate fetch,
prune op, index I/O, subtree-cache probe) is charged to the query that
first demanded the subtree (its DAG exemplar); every other consumer
records a ``batch_shared_subtrees`` credit instead.  Plans the physical
planner routed away from GTEA (unsatisfiable, TwigStackD) run through
the ordinary per-query path.
"""

from __future__ import annotations

import time

from ..plan.shared import BatchPlan
from ..query.gtpq import EdgeType
from ..query.naive import candidate_nodes
from .cache import CacheCounters, LRUCache
from .gtea import GTEA, CandidateProvider
from .operators import OperatorStats
from .prune import PruningContext, build_pred_contour, downward_step
from .results import ResultSet
from .stats import EvaluationStats


class SharedExecutor:
    """Executes a compiled batch with shared subtree materialization.

    Args:
        engine: the :class:`~repro.engine.gtea.GTEA` to execute on; all
            participating plans must target its reachability index.
        candidate_provider: optional ``(query, node_id) -> mat(u)``
            source (the session layer injects its predicate-keyed
            candidate cache); defaults to a fresh scan.
        subtree_cache: optional LRU holding downward-pruned candidate
            tuples keyed by subtree fingerprint, reused across executions.
        candidate_counters: counters of the cache backing
            ``candidate_provider``; when given, per-fetch deltas are
            attributed to the consuming query's stats.
        parallel: optional :class:`~repro.engine.parallel.ParallelExecutor`;
            when given, the DAG's downward prunes run sharded through
            its frontier (:meth:`~repro.engine.parallel.
            ParallelExecutor.materialize_dag`) instead of the serial
            topological sweep — same sets, same attribution; the plan
            suffix of every query stays serial either way.
    """

    def __init__(
        self,
        engine: GTEA,
        *,
        candidate_provider: CandidateProvider | None = None,
        subtree_cache: LRUCache | None = None,
        candidate_counters: CacheCounters | None = None,
        parallel=None,
    ):
        self.engine = engine
        self.candidate_provider = candidate_provider
        self.subtree_cache = subtree_cache
        self.candidate_counters = candidate_counters
        self.parallel = parallel

    # ------------------------------------------------------------------
    def execute(
        self, batch: BatchPlan
    ) -> list[tuple[ResultSet, EvaluationStats]]:
        """Run every plan of ``batch``; one (answer, stats) per plan."""
        stats_by_plan = [EvaluationStats() for _ in batch.plans]
        if self.parallel is not None:
            down = self.parallel.materialize_dag(
                batch,
                stats_by_plan,
                candidate_provider=self.candidate_provider,
                subtree_cache=self.subtree_cache,
                candidate_counters=self.candidate_counters,
            )
        else:
            down = self._materialize_dag(batch, stats_by_plan)

        exemplar_of = {
            subtree.fingerprint: subtree.exemplar for subtree in batch.dag.subtrees
        }
        outcomes: list[tuple[ResultSet, EvaluationStats]] = []
        for position, plan in enumerate(batch.plans):
            stats = stats_by_plan[position]
            node_fingerprints = batch.dag.node_fingerprints[position]
            if not node_fingerprints:
                # Unsatisfiable or baseline-routed: the ordinary path.
                with stats.record_candidate_cache(self.candidate_counters):
                    results, stats = self.engine.execute(
                        plan, candidate_provider=self.candidate_provider, stats=stats
                    )
                outcomes.append((results, stats))
                continue
            mats = {
                node_id: list(down[fingerprint])
                for node_id, fingerprint in node_fingerprints.items()
            }
            for node_id, fingerprint in node_fingerprints.items():
                if exemplar_of[fingerprint] != (position, node_id):
                    stats.batch_shared_subtrees += 1
            results, stats = self.engine.execute_from_downward(plan, mats, stats=stats)
            outcomes.append((results, stats))
        return outcomes

    # ------------------------------------------------------------------
    def _materialize_dag(
        self, batch: BatchPlan, stats_by_plan: list[EvaluationStats]
    ) -> dict[str, tuple[int, ...]]:
        """Downward-pruned candidate set per DAG node, children first."""
        down: dict[str, tuple[int, ...]] = {}
        if not batch.dag.subtrees:
            return down
        engine = self.engine
        reach = engine.reachability
        reach.counters.reset()
        contexts: dict[int, PruningContext] = {}
        contours: dict[str, object] = {}
        seen = reach.counters.snapshot()

        for subtree in batch.dag.subtrees:
            position, node_id = subtree.exemplar
            stats = stats_by_plan[position]
            fingerprint = subtree.fingerprint
            if self.subtree_cache is not None:
                cached = self.subtree_cache.get(fingerprint)
                if cached is not None:
                    stats.subtree_cache_hits += 1
                    down[fingerprint] = cached
                    continue
                stats.subtree_cache_misses += 1

            plan = batch.plans[position]
            query = plan.query
            context = contexts.get(position)
            if context is None:
                context = PruningContext(engine.graph, query, reach)
                contexts[position] = context

            started = time.perf_counter()
            with stats.record_candidate_cache(self.candidate_counters):
                with stats.time_phase("candidates"):
                    if self.candidate_provider is not None:
                        candidates = list(self.candidate_provider(query, node_id))
                    else:
                        candidates = candidate_nodes(engine.graph, query, node_id)
            stats.candidates_initial[node_id] = len(candidates)
            stats.input_nodes += len(candidates)

            with stats.time_phase("prune_downward"):
                children = query.children[node_id]
                refined_children = {
                    child_id: list(down[batch.dag.node_fingerprints[position][child_id]])
                    for child_id in children
                }
                if context.index is not None:
                    for child_id in children:
                        if query.edge_type(child_id) is not EdgeType.DESCENDANT:
                            continue
                        child_fp = batch.dag.node_fingerprints[position][child_id]
                        contour = contours.get(child_fp)
                        if contour is None:
                            contour = build_pred_contour(context, list(down[child_fp]))
                            contours[child_fp] = contour
                        context.pred_contours[child_id] = contour
                survivors = downward_step(context, node_id, candidates, refined_children)
            stats.downward_prune_ops += 1

            down[fingerprint] = tuple(survivors)
            if self.subtree_cache is not None:
                self.subtree_cache.put(fingerprint, down[fingerprint])

            # Attribute the index I/O of this sub-plan to its exemplar.
            snapshot = reach.counters.snapshot()
            lookups = snapshot["lookups"] - seen["lookups"]
            entries = snapshot["entries_scanned"] - seen["entries_scanned"]
            stats.index_lookups += lookups
            stats.index_entries += entries
            seen = snapshot
            stats.operator_stats.append(
                OperatorStats(
                    op="DownwardPrune",
                    target=node_id,
                    input_size=len(candidates),
                    output_size=len(survivors),
                    seconds=time.perf_counter() - started,
                    index_lookups=lookups,
                    index_entries=entries,
                    note="shared-dag",
                )
            )
        return down
