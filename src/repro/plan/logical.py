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
from ..query.attribute import AttributePredicate, pinned_label_atom
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
    children = query.children
    subtree_cost: dict[str, int] = {}
    for node_id in query.bottom_up():
        below = sum(map(subtree_cost.__getitem__, children[node_id]))
        subtree_cost[node_id] = estimates[node_id] + below

    order: list[str] = []
    _visit_cheapest_first(children, query.root, subtree_cost, order)
    return tuple(order)


def _visit_cheapest_first(
    children: dict[str, list[str]], node_id: str, subtree_cost: dict[str, int], order: list[str]
) -> None:
    """Append the subtree of ``node_id`` to ``order`` in post-order.  Not a
    closure: one that calls itself is a cycle left for the collector."""
    child_ids = children[node_id]
    if len(child_ids) > 1:
        child_ids = sorted(child_ids, key=lambda c: (subtree_cost[c], c))
    for child in child_ids:
        _visit_cheapest_first(children, child, subtree_cost, order)
    order.append(node_id)


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

    # A node's source is a function of the node and its estimate: the
    # subtree record keeps the last one, for the next plan over it.
    sources = []
    records = query.records()
    for node_id in query.preorder():
        record, estimate = records[node_id], estimates[node_id]
        source = record.source
        if source is None or source.estimate != estimate:
            node = record.node
            source = record.source = CandidateSource(
                node_id=node_id,
                kind="backbone" if node.is_backbone else "predicate",
                # The scan's own rule: a None or NaN label pins nothing.
                source="full-scan" if pinned_label_atom(node.predicate) is None else "label-index",
                predicate=node.predicate,
                estimate=estimate,
            )
        sources.append(source)

    return LogicalPlan(
        query=query,
        sources=tuple(sources),
        downward_order=_selectivity_order(query, estimates),
        outputs=tuple(query.outputs),
        total_candidate_estimate=sum(estimates.values()),
    )
