"""Phase 2 of query compilation: the logical plan.

An inspectable IR describing *what* evaluation has to do for one
(already normalized) query, independent of the index choice:

* one :class:`CandidateSource` per query node — where its ``mat(u)``
  comes from (label posting list vs. full scan) and how large it is
  estimated to be;
* one :class:`PruneObligation` per structural constraint the pruning
  phases must discharge (downward ``fext`` evaluation per internal
  node, upward reachability refinement per prime-subtree edge);
* the output structure the result collector assembles.

The plan also fixes the **downward prune order**: any
children-before-parents order is admissible (Procedure 6 only reads
refined child sets), so the planner visits cheaper subtrees first —
selective children are refined early, and their parent-set/contour
by-products are built from the smallest possible survivor sets.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graph.digraph import DataGraph
from ..query.attribute import AttributePredicate
from ..query.gtpq import GTPQ, EdgeType
from ..query.serialize import subtree_fingerprints
from .cost import estimate_candidates
from .normalize import NormalizedQuery


@dataclass(frozen=True)
class CandidateSource:
    """Where one query node's candidate set comes from."""

    node_id: str
    kind: str  #: ``"backbone"`` or ``"predicate"``
    source: str  #: ``"label-index"`` or ``"full-scan"``
    predicate: AttributePredicate | str  #: ``fa(u)``; ``explain`` prints its display form
    estimate: int  #: estimated ``|mat(u)|`` (upper bound)


@dataclass(frozen=True)
class PruneObligation:
    """One constraint a pruning phase must discharge."""

    node_id: str
    phase: str  #: ``"downward"`` or ``"upward"``
    test: str  #: display form of the check


@dataclass(frozen=True)
class LogicalPlan:
    """The logical IR of one normalized query.

    Attributes:
        query: the (rewritten) query this plan describes.
        sources: candidate source per query node, in plan order.
        downward_order: children-before-parents node order for
            Procedure 6, cheapest subtrees first.
        outputs: output node ids of the rewritten query.
        total_candidate_estimate: sum of the per-node estimates.

    Execution reads the fields above.  What only ``explain`` reads is
    derived from ``query`` when asked for: the prune :attr:`obligations`
    and the :attr:`subtree_fingerprints`.
    """

    query: GTPQ
    sources: tuple[CandidateSource, ...]
    downward_order: tuple[str, ...]
    outputs: tuple[str, ...]
    total_candidate_estimate: int

    @property
    def subtree_fingerprints(self) -> dict[str, str]:
        """Per query node, the canonical fingerprint of its rooted subtree
        (:func:`repro.query.serialize.subtree_fingerprints`) — the key of
        the session's subtree cache."""
        return subtree_fingerprints(self.query)

    @property
    def obligations(self) -> tuple[PruneObligation, ...]:
        """The prune obligations, downward then upward."""
        query = self.query
        obligations = [
            PruneObligation(node_id, "downward", f"fext = {query.fext(node_id)}")
            for node_id in query.depth_first()
            if query.children[node_id]
        ]
        for node_id in query.depth_first():
            if node_id == query.root or not query.nodes[node_id].is_backbone:
                continue
            edge = "child" if query.edge_type(node_id) is EdgeType.CHILD else "descendant"
            test = f"{edge} of a surviving mat({query.parent[node_id]}) node"
            obligations.append(PruneObligation(node_id, "upward", test))
        return tuple(obligations)

    def explain_lines(self) -> list[str]:
        lines = ["candidate sources:"]
        for source in self.sources:
            lines.append(
                f"  {source.node_id:<12} {source.kind:<9} "
                f"{source.source:<11} ~{source.estimate:<6} {source.predicate}"
            )
        lines.append(
            "downward prune order (cheap subtrees first): "
            + " -> ".join(self.downward_order)
        )
        lines.append("prune obligations:")
        for obligation in self.obligations:
            lines.append(f"  [{obligation.phase}] {obligation.node_id}: {obligation.test}")
        lines.append(f"outputs: {tuple(self.outputs)}")
        fingerprints = self.subtree_fingerprints
        lines.append(
            f"subtrees: {len(fingerprints)} rooted, "
            f"{len(set(fingerprints.values()))} distinct fingerprints"
        )
        return lines


def _selectivity_order(query: GTPQ, estimates: dict[str, int]) -> tuple[str, ...]:
    """Post-order with siblings visited by ascending subtree estimate."""
    subtree_cost: dict[str, int] = {}
    for node_id in query.bottom_up():
        subtree_cost[node_id] = estimates[node_id] + sum(
            subtree_cost[child] for child in query.children[node_id]
        )

    order: list[str] = []

    def visit(node_id: str) -> None:
        for child in sorted(query.children[node_id], key=lambda c: (subtree_cost[c], c)):
            visit(child)
        order.append(node_id)

    visit(query.root)
    return tuple(order)


def build_logical_plan(
    graph: DataGraph,
    normalized: NormalizedQuery,
    candidate_estimates: dict[str, int] | None = None,
) -> LogicalPlan:
    """Build the logical IR for ``normalized.rewritten`` over ``graph``."""
    query = normalized.rewritten
    estimates = (
        candidate_estimates
        if candidate_estimates is not None
        else estimate_candidates(graph, query)
    )

    sources = []
    for node_id in query.depth_first():
        predicate = query.attribute(node_id)
        pins_label = any(
            attribute == "label" and op == "=" for attribute, op, _ in predicate.atoms
        )
        sources.append(
            CandidateSource(
                node_id=node_id,
                kind="backbone" if query.nodes[node_id].is_backbone else "predicate",
                source="label-index" if pins_label else "full-scan",
                predicate=predicate,
                estimate=estimates[node_id],
            )
        )

    return LogicalPlan(
        query=query,
        sources=tuple(sources),
        downward_order=_selectivity_order(query, estimates),
        outputs=tuple(query.outputs),
        total_candidate_estimate=sum(estimates.values()),
    )
