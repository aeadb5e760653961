"""Batch compilation: a DAG of shared sub-plans over a query workload.

Real workloads share subtrees heavily — families of tree queries mined
from a graph differ in a node or two and repeat whole branches.  Without
the session's subtree cache, the per-query pipeline prunes each query in
isolation, re-discharging the same downward obligations for every copy
of a shared branch.

The key observation (the same one behind the bottom-up sweep of the
paper's Procedure 6) is that the *downward match set* of a rooted
subtree is query-context-free: it depends only on the subtree's own
attribute predicates, edge types and structural formulas.  So a batch
can be compiled into a :class:`SharedPlanDAG` with one node per
*distinct* rooted subtree — keyed by the canonical fingerprint of
:func:`repro.query.serialize.subtree_fingerprints` — topologically
ordered children-before-parents.  Each shared prune obligation then
executes once, and its post-prune candidate set feeds every query that
contains the subtree (:class:`repro.engine.shared.SharedExecutor`).

Only plans the physical planner routed to the GTEA executor participate;
unsatisfiable plans answer O(1) without candidates, and baseline-routed
plans do not consume downward-pruned sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..graph.digraph import DataGraph
from ..graph.stats import GraphStats
from ..query.gtpq import GTPQ
from .compile import CompiledPlan, compile_query


@dataclass(frozen=True)
class SharedSubtree:
    """One node of the shared-plan DAG: a distinct rooted subtree.

    Attributes:
        fingerprint: canonical subtree fingerprint (the sharing key).
        exemplar: ``(plan position, node id)`` of the occurrence whose
            query structure the executor uses to discharge the prune —
            any occurrence works (equal fingerprints guarantee equal
            downward match sets); the first one in batch order is kept.
        children: fingerprints of the exemplar's child subtrees, in the
            exemplar query's child order.
        occurrences: every ``(plan position, node id)`` that consumes
            this subtree's post-prune candidate set.
    """

    fingerprint: str
    exemplar: tuple[int, str]
    children: tuple[str, ...]
    occurrences: tuple[tuple[int, str], ...]

    @property
    def shared(self) -> bool:
        """Does more than one query node consume this sub-plan?"""
        return len(self.occurrences) > 1


@dataclass(frozen=True)
class SharedPlanDAG:
    """The shared logical sub-plans of one batch, topologically ordered.

    Attributes:
        subtrees: one entry per distinct subtree fingerprint, ordered so
            every child subtree precedes its parents (children-first; a
            valid execution order for the shared downward sweep).
        node_fingerprints: per batch position, ``node id -> fingerprint``
            for the plan's rewritten query — empty for plans that do not
            participate (unsatisfiable or baseline-routed).
    """

    subtrees: tuple[SharedSubtree, ...]
    node_fingerprints: tuple[dict[str, str], ...]

    @property
    def total_occurrences(self) -> int:
        """Rooted subtrees across the batch, with multiplicity."""
        return sum(len(subtree.occurrences) for subtree in self.subtrees)

    @property
    def distinct_subtrees(self) -> int:
        return len(self.subtrees)

    @property
    def shared_occurrences(self) -> int:
        """Occurrences served by another occurrence's prune work."""
        return self.total_occurrences - self.distinct_subtrees

    def explain_lines(self) -> list[str]:
        header = (
            f"batch: {len(self.node_fingerprints)} plans, "
            f"{self.total_occurrences} rooted subtrees, "
            f"{self.distinct_subtrees} distinct "
            f"({self.shared_occurrences} shared occurrences)"
        )
        lines = [header]
        for position, subtree in enumerate(self.subtrees):
            if not subtree.shared:
                continue
            consumers = ", ".join(
                f"q{plan_pos}:{node_id}" for plan_pos, node_id in subtree.occurrences
            )
            lines.append(
                f"  sub-plan {position} [{subtree.fingerprint[:12]}] "
                f"x{len(subtree.occurrences)} <- {consumers}"
            )
        if len(lines) == 1:
            lines.append("  (no shared subtrees in this batch)")
        return lines


@dataclass(frozen=True)
class BatchPlan:
    """A compiled workload: per-query plans plus the shared-plan DAG."""

    plans: tuple[CompiledPlan, ...]
    dag: SharedPlanDAG

    def explain(self) -> str:
        """Render the sharing structure of the batch."""
        lines = ["== shared plan DAG =="]
        lines.extend(self.dag.explain_lines())
        for position, plan in enumerate(self.plans):
            nodes = self.dag.node_fingerprints[position]
            lines.append(
                f"q{position}: executor={plan.physical.executor}, "
                f"nodes={len(plan.query.nodes)}, "
                f"subtrees in DAG={len(nodes)}"
            )
        return "\n".join(lines)


#: minimum estimated candidate elements the shared DAG must save before
#: :func:`should_share` considers its bookkeeping worthwhile.
SHARE_MIN_SAVINGS = 1


def estimated_sharing_savings(plans: Sequence[CompiledPlan]) -> int:
    """Estimated candidate elements whose downward prune sharing avoids.

    Every occurrence of a subtree beyond the first skips one downward
    refinement over that node's candidate set; the saving is priced with
    the first-occurrence plan's compile-time candidate estimate.  Read
    straight from the plans' memoised subtree fingerprints — no
    :class:`SharedPlanDAG` is built, so the tiny-batch guard can decide
    *before* paying any batch-compilation bookkeeping.
    """
    counts: dict[str, int] = {}
    exemplar_estimate: dict[str, int] = {}
    for plan in plans:
        if not _participates(plan):
            continue
        estimates = {source.node_id: source.estimate for source in plan.logical.sources}
        for node_id, fingerprint in plan.subtree_fingerprints.items():
            counts[fingerprint] = counts.get(fingerprint, 0) + 1
            exemplar_estimate.setdefault(fingerprint, estimates.get(node_id, 0))
    return sum(
        (count - 1) * exemplar_estimate[fingerprint]
        for fingerprint, count in counts.items()
        if count > 1
    )


def should_share(plans: Sequence[CompiledPlan], *, min_savings: int = SHARE_MIN_SAVINGS) -> bool:
    """Is the shared DAG worth its bookkeeping for this batch of plans?

    Tiny batches of disjoint queries pay the DAG's per-subtree
    bookkeeping (batch compilation, contexts, contour maps, cache
    probes, tuple materialization) without sharing anything — the guard
    routes them to the isolated per-query path instead.  Sharing stays
    on when some subtree is consumed by ≥ 2 query nodes *and* the
    estimated saved candidate volume reaches ``min_savings``.  A subtree
    an earlier execution pruned needs no DAG: the isolated path reads
    the session's subtree cache too.
    """
    return len(plans) > 1 and estimated_sharing_savings(plans) >= min_savings


def _participates(plan: CompiledPlan) -> bool:
    """Does this plan consume shared downward-pruned candidate sets?"""
    return not plan.unsatisfiable and plan.physical.executor == "gtea"


def build_shared_dag(plans: Sequence[CompiledPlan]) -> SharedPlanDAG:
    """Build the shared-plan DAG over already compiled plans.

    The concatenation of each participating query's bottom-up node order
    visits every child subtree before its parent, so deduplicating by
    first appearance yields a topological order of the DAG for free.
    """
    order: list[str] = []
    exemplar: dict[str, tuple[int, str]] = {}
    children: dict[str, tuple[str, ...]] = {}
    occurrences: dict[str, list[tuple[int, str]]] = {}
    node_fingerprints: list[dict[str, str]] = []

    for position, plan in enumerate(plans):
        if not _participates(plan):
            node_fingerprints.append({})
            continue
        query = plan.query
        fingerprints = plan.subtree_fingerprints
        node_fingerprints.append(fingerprints)
        for node_id in query.bottom_up():
            fingerprint = fingerprints[node_id]
            if fingerprint not in exemplar:
                order.append(fingerprint)
                exemplar[fingerprint] = (position, node_id)
                children[fingerprint] = tuple(
                    fingerprints[child_id] for child_id in query.children[node_id]
                )
                occurrences[fingerprint] = []
            occurrences[fingerprint].append((position, node_id))

    subtrees = tuple(
        SharedSubtree(
            fingerprint=fingerprint,
            exemplar=exemplar[fingerprint],
            children=children[fingerprint],
            occurrences=tuple(occurrences[fingerprint]),
        )
        for fingerprint in order
    )
    return SharedPlanDAG(subtrees=subtrees, node_fingerprints=tuple(node_fingerprints))


def compile_batch(
    graph: DataGraph,
    queries: Sequence[GTPQ] = (),
    *,
    plans: Sequence[CompiledPlan] | None = None,
    index: str = "auto",
    minimize: bool = True,
    stats: GraphStats | None = None,
) -> BatchPlan:
    """Compile a workload into per-query plans plus a shared-plan DAG.

    Args:
        graph: the data graph.
        queries: the batch, in workload order.  Ignored when ``plans``
            is given.
        plans: already compiled plans (the session layer caches them per
            fingerprint); skips per-query compilation.
        index: reachability index name or ``"auto"``.
        minimize: run Algorithm-1 minimization during normalization.
        stats: precomputed graph statistics.
    """
    if plans is None:
        plans = [
            compile_query(graph, query, index=index, minimize=minimize, stats=stats)
            for query in queries
        ]
    plans = tuple(plans)
    return BatchPlan(plans=plans, dag=build_shared_dag(plans))
