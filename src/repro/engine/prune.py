"""The two-round pruning process (paper Procedures 6 and 7).

``prune_downward`` keeps, per query node, only candidates satisfying the
*downward* structural constraints (the subtree pattern rooted at the node);
``prune_upward`` then walks the prime subtree top-down and keeps candidates
reachable from the refined parent sets.

Chain mechanics (Section 4.2.2): candidates are grouped by 3-hop chain and
processed in descending sequence order.  Along one chain the reach-set only
grows as the sequence number shrinks, so child valuations are inherited
monotonically (0 -> 1) and each chain region of the index is scanned once —
the ``visited`` bookkeeping of the paper's expanded Procedure 6.

Deviations from the paper, argued in docs/ARCHITECTURE.md ("Reachability
and pruning"):

* PC children are evaluated *exactly*, by membership in the merged parent
  set of the child's survivors (the paper's Section 4.4 "first strategy"),
  so negation over PC edges needs no special casing;
* ``fext(u)`` is decided once per node in the algebra of candidate sets
  and not once per candidate ("Procedure 6 as set algebra");
* upward pruning also refines across parents with singleton candidate
  sets — required for correctness of the Cartesian assembly when shrinking
  disconnects the prime subtree.
"""

from __future__ import annotations

from itertools import compress

from ..graph.digraph import DataGraph
from ..logic import And, Const, Not, Or, Var
from ..query.gtpq import GTPQ, EdgeType
from ..reachability.base import GraphReachability
from ..reachability.contour import Contour, merge_pred_lists, merge_succ_lists
from ..reachability.partial import mask
from ..reachability.three_hop import ThreeHopIndex

#: Candidate sets per query node (data-node ids).
MatSets = dict[str, list[int]]


class PruningContext:
    """Shared state between the two pruning rounds.

    The chain/contour machinery (Section 4.2) applies when the reachability
    service is backed by the 3-hop index; :attr:`index` then holds it.  Any
    other :class:`~repro.reachability.base.DagIndex` works too (the paper's
    "flexible for our framework to use other labeling schemes" remark,
    Section 4.1), through the generic AD sites: an index that hands out
    descendant rows (``rows_for`` — ``tc``, the lazily filled closure) is
    read by the *row kernel*, one AND of a component's row against the
    mask of a candidate set per test; any other falls back to memoized
    per-pair probes of ``reaches``.  A row is strict, so all three sites
    add the cyclic same-component hit themselves.
    """

    def __init__(self, graph: DataGraph, query: GTPQ, reach: GraphReachability):
        self.graph = graph
        self.query = query
        self.reach = reach
        #: the 3-hop index when available, else None (generic fallback).
        self.index: ThreeHopIndex | None = (
            reach.index if isinstance(reach.index, ThreeHopIndex) else None
        )
        self.pred_contours: dict[str, Contour] = {}
        #: node-level downward refinements executed through this context
        #: (one per Procedure-6 node visit).
        self.downward_ops = 0

    def dag_images(self, nodes: list[int]) -> list[int]:
        """Distinct DAG components of a set of data nodes."""
        return sorted(set(self.reach.components(nodes)))

    def component_reaches_any(self, component: int, target_components: list[int]) -> bool:
        """Generic strict set-reachability: ``component`` to any target.

        Cyclic same-component hits are included (a node of a cyclic
        component strictly reaches every node of it).  Used by the
        fallback paths when :attr:`index` is None.
        """
        dag_index = self.reach.index
        for target in target_components:
            if target == component:
                if self.reach.is_cyclic_component(component):
                    return True
            elif dag_index.reaches(component, target):
                return True
        return False


def prune_downward(
    context: PruningContext,
    mats: MatSets,
    order: tuple[str, ...] | None = None,
) -> MatSets:
    """Procedure 6: keep candidates satisfying downward constraints.

    Predecessor contours are only materialized for nodes entered through
    an AD edge — PC children are checked with exact successor lookups, so
    their contours would never be read (a large saving on the paper's
    PC-heavy XMark workloads).

    Args:
        context: shared pruning state.
        mats: initial candidate sets.
        order: node visit order; any children-before-parents permutation
            is valid (only refined child sets are read).  The physical
            planner passes a selectivity-sorted order; the default is
            :meth:`~repro.query.gtpq.GTPQ.bottom_up`.
    """
    query = context.query
    refined: MatSets = {}
    for node_id in order if order is not None else query.bottom_up():
        refined[node_id] = downward_step(context, node_id, mats[node_id], refined)
        if needs_pred_contour(context, node_id):
            context.pred_contours[node_id] = build_pred_contour(context, refined[node_id])
    return refined


def downward_step(
    context: PruningContext,
    node_id: str,
    candidates: list[int],
    refined_children: MatSets,
) -> list[int]:
    """One node of Procedure 6, fed with already-refined child sets.

    The refined child sets may come from the session's subtree cache or
    a parallel frontier rather than the same sweep.  For AD children the
    caller must have installed predecessor contours via
    :func:`build_pred_contour` (3-hop index only; other indexes use the
    generic fallback, which needs no contours).
    """
    context.downward_ops += 1
    fext = context.query.fext(node_id)
    if isinstance(fext, Const):
        # Constant fext decides the whole candidate set at once: every
        # leaf (normally TRUE, but rewrites can leave a constant FALSE
        # behind — a dropped subtree substituted to 0), and any internal
        # node whose obligations folded away.  Hoisting the check here
        # skips building the child sets entirely.
        return list(candidates) if fext.value else []
    return _filter_downward(context, node_id, list(candidates), refined_children, fext)


def needs_pred_contour(context: PruningContext, node_id: str) -> bool:
    """Will a later parent visit read this node's predecessor contour?

    Only AD-entered non-root nodes, and only under the 3-hop index (the
    generic fallback probes ``reaches`` directly and needs no contours).
    Shared by the full sweep above and the per-node
    :class:`~repro.engine.operators.DownwardPrune` operator.
    """
    query = context.query
    return (
        context.index is not None
        and node_id != query.root
        and query.edge_type(node_id) is EdgeType.DESCENDANT
    )


def build_pred_contour(context: PruningContext, nodes: list[int]) -> Contour | None:
    """Predecessor contour of a refined candidate set (3-hop index only)."""
    if context.index is None:
        return None
    return merge_pred_lists(context.index, context.dag_images(list(nodes)))


def _filter_downward(
    context: PruningContext,
    node_id: str,
    candidates: list[int],
    refined: MatSets,
    fext,
) -> list[int]:
    """Keep the candidates that satisfy ``fext(node_id)``, in input order.

    ``fext`` is evaluated once, in the Boolean algebra of candidate sets
    (docs/ARCHITECTURE.md, "Procedure 6 as set algebra"): each child
    contributes the set of candidates it holds for, and the connectives
    become set operations.
    """
    query = context.query
    ad_children = [c for c in query.children[node_id] if query.edge_type(c) is EdgeType.DESCENDANT]
    # Section 4.4: "merge the set of parents of mat(u') for each child u'
    # into P_{u'}" — a PC child holds for exactly the members of P_{u'}.
    child_sets = {
        c: context.graph.parents_of(refined[c])
        for c in query.children[node_id]
        if query.edge_type(c) is EdgeType.CHILD
    }

    # The chain-shared contour machinery only pays off when there are AD
    # children to valuate; PC-only nodes (common in XMark patterns) skip
    # it entirely.
    if ad_children:
        if context.index is not None:
            ad_valuations = _ad_valuations_by_component(
                context,
                candidates,
                {c: context.pred_contours[c] for c in ad_children},
                {c: refined[c] for c in ad_children},
            )
        else:
            ad_valuations = _ad_valuations_generic(
                context, candidates, {c: refined[c] for c in ad_children}
            )
        # An AD child holds for the candidates of the components whose
        # valuation has its bit set.
        components = context.reach.components(candidates)
        for c in ad_children:
            holds = {comp for comp, bits in ad_valuations.items() if bits[c]}
            child_sets[c] = set(compress(candidates, map(holds.__contains__, components)))

    def satisfying(formula) -> set[int]:
        """Candidates satisfying ``formula``; operand sets are never mutated."""
        if isinstance(formula, Var):
            if formula.name not in child_sets:
                raise KeyError(
                    f"fext({node_id!r}) reads {formula.name!r}, which has no child valuation"
                )
            return child_sets[formula.name]
        if isinstance(formula, And):
            smallest, *rest = sorted(map(satisfying, formula.children), key=len)
            return smallest.intersection(*rest)
        if isinstance(formula, Or):
            return set().union(*map(satisfying, formula.children))
        # Negation and constants are relative to the node's own candidates.
        if isinstance(formula, Not):
            return set(candidates) - satisfying(formula.child)
        if isinstance(formula, Const):
            return set(candidates) if formula.value else set()
        raise TypeError(f"not a formula: {formula!r}")

    keep = satisfying(fext)
    return list(filter(keep.__contains__, candidates))


def _ad_valuations_generic(
    context: PruningContext,
    candidates: list[int],
    child_mats: dict[str, list[int]],
) -> dict[int, dict[str, bool]]:
    """AD child valuations of non-3-hop indexes.

    One valuation per DAG component, as in the chain-shared variant; each
    bit is one row test (one counted lookup) where the index hands out
    rows, else a ``reaches`` probe per target of the child's component set.
    """
    child_components = {
        child_id: context.dag_images(nodes) for child_id, nodes in child_mats.items()
    }
    components = set(context.reach.components(candidates))
    rows = context.reach.index.rows_for(components)
    if rows is None:
        return {
            component: {
                child_id: context.component_reaches_any(component, targets)
                for child_id, targets in child_components.items()
            }
            for component in components
        }
    # Row kernel: "component has a descendant in S_child" is one AND of
    # its row against the child's mask.  A row is strict, so the cyclic
    # same-component hit is read off the mask itself.
    cyclic = context.reach.condensation.cyclic
    masks = {child_id: mask(targets) for child_id, targets in child_components.items()}
    context.reach.counters.lookups += len(components) * len(masks)
    result: dict[int, dict[str, bool]] = {}
    for component in components:
        row, own = rows[component], cyclic[component]
        result[component] = {
            child_id: bool(row & targets or own and targets >> component & 1)
            for child_id, targets in masks.items()
        }
    return result


def _ad_valuations_by_component(
    context: PruningContext,
    candidates: list[int],
    contours: dict[str, Contour],
    child_mats: dict[str, list[int]],
) -> dict[int, dict[str, bool]]:
    """AD child valuations, computed once per DAG component.

    Implements the shared chain scan of Procedure 6: components grouped by
    chain, processed in descending sequence order; a valuation set to true
    at a deep component is inherited by every shallower component on the
    chain, and index regions are never re-scanned.
    """
    index, reach = context.index, context.reach
    cover = index.cover
    components = sorted(set(reach.components(candidates)))
    # Cyclic same-component hits: candidate's component contains a child
    # match and is cyclic -> the candidate strictly reaches that match.
    child_component_sets = {
        child_id: set(context.dag_images(nodes)) for child_id, nodes in child_mats.items()
    }

    by_chain: dict[int, list[int]] = {}
    for component in components:
        by_chain.setdefault(cover.cid[component], []).append(component)

    result: dict[int, dict[str, bool]] = {}
    child_ids = list(contours)
    for chain, members in by_chain.items():
        members.sort(key=lambda c: cover.sid[c], reverse=True)
        valuation = {child_id: False for child_id in child_ids}
        pending = {child_id for child_id in child_ids if len(contours[child_id]) > 0}
        scanned_up_to: int | None = None  # smallest sid already scanned
        for component in members:
            sid = cover.sid[component]
            if pending:
                for child_id in list(pending):
                    upper = contours[child_id].get(chain)
                    if upper is not None and sid <= upper:
                        valuation[child_id] = True
                        pending.discard(child_id)
                if pending:
                    for entry_chain, entry_sid in index.iter_out_entries(
                        component, stop_sid=scanned_up_to
                    ):
                        for child_id in list(pending):
                            upper = contours[child_id].get(entry_chain)
                            if upper is not None and entry_sid <= upper:
                                valuation[child_id] = True
                                pending.discard(child_id)
                        if not pending:
                            break
                scanned_up_to = sid
            entry = dict(valuation)
            if context.reach.is_cyclic_component(component):
                for child_id in child_ids:
                    if not entry[child_id] and component in child_component_sets[child_id]:
                        entry[child_id] = True
            result[component] = entry
        # Components with every valuation known still record their entry.
    return result


def prune_upward(context: PruningContext, mats: MatSets, prime: list[str]) -> MatSets:
    """Procedure 7: keep candidates reachable from refined parent sets.

    Traverses the prime subtree top-down.  AD edges use successor contours
    with the ascending-chain early exit ("once a node is confirmed, all
    larger nodes on the chain satisfy the condition"); a PC edge keeps the
    candidates among the children of the refined parents.
    """
    query, index, reach = context.query, context.index, context.reach
    prime_set = set(prime)
    refined = {node_id: list(nodes) for node_id, nodes in mats.items()}
    succ_contours: dict[str, Contour] = {}
    for node_id in prime:  # pre-order: parents first
        children = [c for c in query.children[node_id] if c in prime_set]
        if not children:
            continue
        parent_nodes = refined[node_id]
        parent_components = context.dag_images(parent_nodes)
        parent_component_set = set(parent_components)
        contour: Contour | None = None
        if index is not None:
            contour = succ_contours.get(node_id)
            if contour is None:
                contour = merge_succ_lists(index, parent_components)
                succ_contours[node_id] = contour
        kids: set[int] | None = None
        for child_id in children:
            if query.edge_type(child_id) is EdgeType.CHILD:
                # Read from the parent side: in a mostly tree-shaped
                # graph the refined parents have far fewer children than
                # there are candidates to ask for their parents.
                if kids is None:
                    kids = context.graph.children_of(parent_nodes)
                refined[child_id] = list(filter(kids.__contains__, refined[child_id]))
            elif index is not None:
                refined[child_id] = _filter_upward_ad(
                    context, refined[child_id], contour, parent_component_set
                )
            else:
                refined[child_id] = _filter_upward_ad_generic(
                    context, refined[child_id], parent_components
                )
            if index is not None:
                succ_contours[child_id] = merge_succ_lists(
                    index, context.dag_images(refined[child_id])
                )
    return refined


def _filter_upward_ad_generic(
    context: PruningContext,
    candidates: list[int],
    parent_components: list[int],
) -> list[int]:
    """Generic upward AD filter: keep candidates some parent reaches.

    Memoized per DAG component: one bit test (one counted lookup) against
    the OR of the parents' rows where the index hands out rows, else a
    ``reaches`` probe per parent.
    """
    reach = context.reach
    dag_index = reach.index
    rows = dag_index.rows_for(parent_components)
    components = reach.components(candidates)
    # Decided once per distinct component, in order of first appearance.
    distinct = dict.fromkeys(components)
    if rows is not None:
        # Row kernel: everything strictly below some parent, in one int.
        below = 0
        for parent in parent_components:
            below |= rows[parent]
        cyclic_parents = set(filter(reach.is_cyclic_component, parent_components))
        dag_index.counters.lookups += len(distinct)
        reached = {c for c in distinct if below >> c & 1 or c in cyclic_parents}
    else:
        reached = {
            component
            for component in distinct
            if any(
                dag_index.reaches(parent, component)
                if parent != component
                else reach.is_cyclic_component(component)
                for parent in parent_components
            )
        }
    return list(compress(candidates, map(reached.__contains__, components)))


def _filter_upward_ad(
    context: PruningContext,
    candidates: list[int],
    contour: Contour,
    parent_components: set[int],
) -> list[int]:
    """Keep candidates the parent set strictly reaches (Proposition 7)."""
    index, reach = context.index, context.reach
    cover = index.cover
    components = reach.components(candidates)
    by_component: dict[int, list[int]] = {}
    for candidate, component in zip(candidates, components):
        by_component.setdefault(component, []).append(candidate)
    by_chain: dict[int, list[int]] = {}
    for component in by_component:
        by_chain.setdefault(cover.cid[component], []).append(component)

    reachable_components: set[int] = set()
    for chain, members in by_chain.items():
        members.sort(key=lambda c: cover.sid[c])  # ascending
        confirmed = False
        for component in members:
            if not confirmed:
                # Once one chain member is reached, all deeper members are
                # reached through the chain (real-edge chains), including
                # the cyclic same-component case.
                confirmed = _component_reached(index, component, chain, contour) or (
                    component in parent_components and reach.is_cyclic_component(component)
                )
            if confirmed:
                reachable_components.add(component)
    return [
        candidate
        for candidate, component in zip(candidates, components)
        if component in reachable_components
    ]


def _component_reached(index: ThreeHopIndex, component: int, chain: int, contour: Contour) -> bool:
    """Does the contour (strict successor) reach ``component``?"""
    index.counters.lookups += 1
    cover = index.cover
    lower = contour.get(chain)
    if lower is not None and lower <= cover.sid[component]:
        return True
    for entry_chain, entry_sid in index.iter_in_entries(component):
        bound = contour.get(entry_chain)
        if bound is not None and bound <= entry_sid:
            return True
    return False
