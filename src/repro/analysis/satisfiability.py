"""GTPQ satisfiability (paper Theorems 1 and 2).

Theorem 1: a GTPQ (with unsatisfiable-attribute and non-independent nodes
removed) is satisfiable iff ``fa(root)`` and ``fcs(root)`` are both
satisfiable.  Theorem 2: linear time for union-conjunctive queries,
NP-complete in general — reflected here as a monotone fast path plus the
SAT-based general procedure.
"""

from __future__ import annotations

from ..logic import evaluate, is_satisfiable, simplify, substitute
from ..query.gtpq import GTPQ
from .structure import AnalysisContext


def normalize_query(query: GTPQ, context: AnalysisContext | None = None) -> GTPQ:
    """Remove unsatisfiable-attribute subtrees and non-independent nodes.

    Their variables are assigned 0 in the parents' structural predicates
    (minGTPQ lines 1–2).  Iterates to a fixpoint: hardwiring a variable can
    render further nodes non-independent.  Preserves query equivalence.

    ``context`` shares analyses with the caller's other checks on the same
    query objects (see :class:`AnalysisContext`); it never changes the
    result.
    """
    if context is None:
        context = AnalysisContext()
    return context.once(_normalize_fixpoint, query)


def _normalize_fixpoint(query: GTPQ, context: AnalysisContext) -> GTPQ:
    current = query
    satisfiable = query.relation().satisfiable  # every copy below shares it
    while True:
        drop: set[str] = set()
        for node_id in current.nodes:
            if node_id == current.root:
                continue
            if not satisfiable[node_id]:
                drop.add(node_id)
        analysis = context.analysis(current)
        for node_id in current.nodes:
            if node_id == current.root or current.nodes[node_id].is_backbone:
                # Backbone nodes are never removed here: their images are
                # required in matches; unsatisfiability surfaces via fcs.
                continue
            if node_id not in analysis.independent_nodes:
                drop.add(node_id)
        # Keep only the shallowest dropped nodes (subtrees go with them).
        roots_of_drop = {
            node_id for node_id in drop if not any(a in drop for a in current.ancestors(node_id))
        }
        if not roots_of_drop:
            return current
        overrides = {}
        for node_id in roots_of_drop:
            parent_id = current.parent[node_id]
            base = overrides.get(parent_id, current.fs(parent_id))
            overrides[parent_id] = simplify(substitute(base, {node_id: False}))
        current = current.copy(drop=roots_of_drop, structural_override=overrides)


def is_query_satisfiable(query: GTPQ, context: AnalysisContext | None = None) -> bool:
    """Theorem 1 decision procedure."""
    if not query.relation().satisfiable[query.root]:
        return False
    # Fast path (Theorem 2.1): monotone predicates, linear check.
    if query.is_union_conjunctive():
        return _union_conjunctive_satisfiable(query)
    if context is None:
        context = AnalysisContext()
    normalized = normalize_query(query, context)
    return is_satisfiable(context.analysis(normalized).fcs(normalized.root))


def _union_conjunctive_satisfiable(query: GTPQ) -> bool:
    """Linear-time check for negation-free queries (Theorem 2.1).

    Monotonicity: a node is matchable iff its attribute predicate is
    satisfiable and its extended predicate evaluates true under the *best*
    child valuation (child variable true iff the child is matchable).
    """
    matchable: dict[str, bool] = {}
    satisfiable = query.relation().satisfiable
    for node_id in query.bottom_up():
        if not satisfiable[node_id]:
            matchable[node_id] = False
            continue
        # fext(u) mentions children of u only, and bottom-up has decided them.
        matchable[node_id] = evaluate(query.fext(node_id), matchable)
    return matchable[query.root]
