"""The two-round pruning process (paper Procedures 6 and 7).

``prune_downward`` keeps, per query node, only candidates satisfying the
*downward* structural constraints (the subtree pattern rooted at the node);
``prune_upward`` then walks the prime subtree top-down and keeps candidates
reachable from the refined parent sets.

An AD (ancestor-descendant) edge is read through the index's set-level
kernels, :meth:`~repro.reachability.base.DagIndex.downward` and
:meth:`~repro.reachability.base.DagIndex.upward`, over sets the index
prepared its own way; which index family runs them — chain-shared contour
scans for 3-hop, the row kernel for ``tc``, pairwise probes otherwise —
is no concern of this module.

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
from typing import Sequence

from ..graph.digraph import DataGraph
from ..logic import And, Const, Not, Or, Var
from ..query.gtpq import GTPQ, EdgeType
from ..reachability.base import ComponentSet, GraphReachability

#: Candidate sets per query node (data-node ids), read-only: a set is
#: shared — a label posting, a cached subtree set — and never mutated.
MatSets = dict[str, Sequence[int]]


class PruningContext:
    """Shared state of one execution's pruning rounds and matching graph.

    Any :class:`~repro.reachability.base.DagIndex` serves (the paper's
    "flexible for our framework to use other labeling schemes" remark,
    Section 4.1).  :attr:`prepared` keeps, per query node, its current
    set as the index prepared it — a contour for 3-hop, a mask or an OR
    of rows for ``tc``, the component list for the rest — built the
    first time an AD edge reads it, so a set no AD edge reads is never
    prepared.
    """

    def __init__(
        self,
        graph: DataGraph,
        query: GTPQ,
        reach: GraphReachability,
        parent_memo=None,
        fingerprints: dict[str, str] | None = None,
    ):
        self.graph = graph
        self.query = query
        self.reach = reach
        #: per query node, its set as the index's kernels read it: the
        #: downward set until the upward pass replaces it, then that one.
        self.prepared: dict[str, ComponentSet] = {}
        #: optional LRU of PC valuations ``P_{u'}`` by the child's subtree
        #: fingerprint (the session's, one graph version's worth), read
        #: through ``fingerprints``, the execution's own subtree keys.
        self.parent_memo = parent_memo
        self.fingerprints = fingerprints

    def prepared_set(self, node_id: str, nodes: Sequence[int]) -> ComponentSet:
        """``node_id``'s set ``nodes`` as the index prepared it: the one
        in :attr:`prepared`, else prepared now and kept there."""
        prepared = self.prepared.get(node_id)
        if prepared is None:
            reach = self.reach
            components = list(dict.fromkeys(reach.components(nodes)))
            prepared = reach.index.prepare(components, reach.condensation.cyclic)
            self.prepared[node_id] = prepared
        return prepared

    def parent_set(self, child_id: str, nodes: Sequence[int]) -> set[int]:
        """``P_{u'}`` of the PC child ``child_id`` whose downward set is
        ``nodes``: the merged parent set of ``nodes``.  With a memo it is
        merged once per child subtree and graph version — equal subtree
        fingerprints have equal downward sets — and the set is shared, so
        callers must not mutate it."""
        memo = self.parent_memo
        if memo is None:
            return self.graph.parents_of(nodes)
        key = self.fingerprints[child_id]
        parents = memo.get(key)
        if parents is None:
            parents = self.graph.parents_of(nodes)
            memo.put(key, parents)
        return parents


def prune_downward(
    context: PruningContext,
    mats: MatSets,
    order: tuple[str, ...] | None = None,
) -> MatSets:
    """Procedure 6: keep candidates satisfying downward constraints.

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
    return refined


def downward_step(
    context: PruningContext,
    node_id: str,
    candidates: Sequence[int],
    refined_children: MatSets,
) -> Sequence[int]:
    """One node of Procedure 6, fed with already-refined child sets.

    Returns the surviving candidates in input order: ``candidates``
    itself when ``fext`` is constant TRUE, else a new tuple — the input
    is filtered, never copied or mutated.  The refined child sets may
    come from the session's subtree cache rather than the same sweep.
    Only AD children are prepared for the index (PC children are read
    by exact parent sets, a large saving on the paper's PC-heavy XMark
    workloads), and a visit whose ``fext`` is constant, or that an early
    exit never reaches, prepares none.
    """
    fext = context.query.fext(node_id)
    if isinstance(fext, Const):
        # Constant fext decides the whole candidate set at once: every
        # leaf (normally TRUE, but rewrites can leave a constant FALSE
        # behind — a dropped subtree substituted to 0), and any internal
        # node whose obligations folded away.  Hoisting the check here
        # skips building the child sets entirely.
        return candidates if fext.value else ()
    return _filter_downward(context, node_id, candidates, refined_children, fext)


def _filter_downward(
    context: PruningContext,
    node_id: str,
    candidates: Sequence[int],
    refined: MatSets,
    fext,
) -> tuple[int, ...]:
    """Keep the candidates that satisfy ``fext(node_id)``, in input order.

    ``fext`` is evaluated once, in the Boolean algebra of candidate sets
    (docs/ARCHITECTURE.md, "Procedure 6 as set algebra"): each child
    contributes the set of candidates it holds for, and the connectives
    become set operations.
    """
    query = context.query
    child_sets: dict[str, set[int]] = {}
    ad_children = []
    for child_id in query.children[node_id]:
        if query.edge_type(child_id) is EdgeType.CHILD:
            # Section 4.4: "merge the set of parents of mat(u') for each
            # child u' into P_{u'}" — a PC child holds for exactly P_{u'}.
            child_sets[child_id] = context.parent_set(child_id, refined[child_id])
        else:
            ad_children.append(child_id)
    if ad_children:
        # An AD child holds for the candidates whose component reaches it.
        targets = [context.prepared_set(c, refined[c]) for c in ad_children]
        components = context.reach.components(candidates)
        hits = context.reach.index.downward(set(components), targets)
        for child_id, holds in zip(ad_children, hits):
            child_sets[child_id] = set(compress(candidates, map(holds.__contains__, components)))

    keep = _satisfying(fext, child_sets, candidates, node_id)
    return tuple(filter(keep.__contains__, candidates))


def _satisfying(formula, child_sets: dict[str, set[int]], candidates, node_id: str) -> set[int]:
    """The candidates satisfying ``formula``, given the set each child
    variable holds for; operand sets are never mutated.  A module-level
    function and not a closure: a closure that calls itself is a
    reference cycle, left per prune for the cyclic collector."""
    if isinstance(formula, Var):
        if formula.name not in child_sets:
            raise KeyError(
                f"fext({node_id!r}) reads {formula.name!r}, which has no child valuation"
            )
        return child_sets[formula.name]
    if isinstance(formula, (And, Or)):
        operands = [
            _satisfying(child, child_sets, candidates, node_id) for child in formula.children
        ]
        if isinstance(formula, Or):
            return set().union(*operands)
        smallest, *rest = sorted(operands, key=len)
        return smallest.intersection(*rest)
    # Negation and constants are relative to the node's own candidates.
    if isinstance(formula, Not):
        return set(candidates) - _satisfying(formula.child, child_sets, candidates, node_id)
    if isinstance(formula, Const):
        return set(candidates) if formula.value else set()
    raise TypeError(f"not a formula: {formula!r}")


def prune_upward(context: PruningContext, mats: MatSets, prime: list[str]) -> MatSets:
    """Procedure 7: keep candidates reachable from refined parent sets.

    Traverses the prime subtree top-down.  An AD child keeps the
    candidates whose component the refined parents reach (the index's
    ``upward`` kernel); a PC child keeps the candidates among the
    children of the refined parents.
    """
    query, reach = context.query, context.reach
    prime_set = set(prime)
    refined = dict(mats)  # sets are replaced, never mutated
    for node_id in prime:  # pre-order: parents first
        children = [c for c in query.children[node_id] if c in prime_set]
        if not children:
            continue
        parent_nodes = refined[node_id]
        kids: set[int] | None = None
        for child_id in children:
            candidates = refined[child_id]
            if query.edge_type(child_id) is EdgeType.CHILD:
                # Read from the parent side: in a mostly tree-shaped
                # graph the refined parents have far fewer children than
                # there are candidates to ask for their parents.
                if kids is None:
                    kids = context.graph.children_of(parent_nodes)
                refined[child_id] = list(filter(kids.__contains__, candidates))
            else:
                sources = context.prepared_set(node_id, parent_nodes)
                components = reach.components(candidates)
                reached = reach.index.upward(set(components), sources)
                keep = map(reached.__contains__, components)
                refined[child_id] = list(compress(candidates, keep))
            context.prepared.pop(child_id, None)  # prepared from the set just replaced
    return refined
