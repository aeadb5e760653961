"""GTPQ minimization — Algorithm 1 (minGTPQ) of the paper.

Produces an equivalent query of minimal size.  NP-hard in general
(Theorem 6); every hard step is a SAT/tautology call on query-sized
formulas, which the paper argues (Section 3.3) is acceptable because
queries are small.

Steps (paper numbering):

1. remove subtrees with unsatisfiable attribute predicates (vars → 0);
2. remove non-independently-constraint nodes (vars → 0) — both handled by
   :func:`repro.analysis.satisfiability.normalize_query`;
3. compute complete structural predicates bottom-up;
4. remove subtrees whose ``fcs`` is unsatisfiable (vars → 0);
5. for nodes ``u`` guaranteed present (``fcs(root) -> p_u`` a tautology),
   hardwire and remove every subtree ``u' ⊴ u`` (vars → 1), relocating
   output nodes into isomorphic counterparts inside u's subtree;
6. for nodes ``u`` guaranteed absent (``fcs(root) -> !p_u``), remove every
   subtree ``u'`` with ``u ⊴ u'`` (vars → 0).
"""

from __future__ import annotations

from ..logic import Formula, forced_literals, is_satisfiable, simplify, substitute
from ..query.gtpq import GTPQ, EdgeType
from .containment import are_equivalent
from .satisfiability import normalize_query
from .structure import AnalysisContext


def minimize_query(query: GTPQ, context: AnalysisContext | None = None) -> GTPQ:
    """Return a minimum equivalent GTPQ (Algorithm 1).

    ``context`` shares analyses with the caller's other checks on the same
    query objects (see :class:`AnalysisContext`); it never changes the
    result.
    """
    if context is None:
        context = AnalysisContext()
    # All passes iterate to a joint fixpoint: removing one subtree can
    # expose fresh non-independence or redundancy elsewhere.  A pass that
    # changes nothing returns its input object, which the context has
    # already seen — the round that confirms the fixpoint recomputes
    # nothing.
    current = query
    while True:
        size_before = current.size
        current = normalize_query(current, context)  # steps 1-2
        current = context.once(_drop_unsat_subtrees, current)  # steps 4-7
        current = context.once(_eliminate_subsumed, current)  # steps 8-19
        if current.size == size_before:
            return current


def _drop_unsat_subtrees(query: GTPQ, context: AnalysisContext) -> GTPQ:
    analysis = context.analysis(query)
    drop: set[str] = set()
    overrides: dict[str, Formula] = {}
    for node_id in query.bottom_up():
        if node_id == query.root or query.nodes[node_id].is_backbone:
            continue
        if any(a in drop for a in query.ancestors(node_id)):
            continue
        if not is_satisfiable(analysis.fcs(node_id)):
            drop.add(node_id)
            parent_id = query.parent[node_id]
            base = overrides.get(parent_id, query.fs(parent_id))
            overrides[parent_id] = simplify(substitute(base, {node_id: False}))
    if not drop:
        return query
    return query.copy(drop=drop, structural_override=overrides)


def _eliminate_subsumed(query: GTPQ, context: AnalysisContext) -> GTPQ:
    """One round of Algorithm 1 lines 8–19; returns ``query`` if no change."""
    analysis = context.analysis(query)
    pairs = analysis.subsumption_pairs()
    if not pairs:
        return query  # no subsumed peer to drop: skip the truth table
    # fcs(root) -> ±p_u for every u: one truth table, two mask tests each.
    forced = forced_literals(analysis.fcs(query.root), query.nodes)
    for node_id in query.nodes:
        if node_id == query.root:
            continue
        presence = forced.get(node_id)
        if presence is True:
            # u is present in every certificate: subsumed peers u' ⊴ u are
            # redundant — hardwire their variables to 1 and drop them.
            for subsumed_id, subsumer_id in pairs:
                if subsumer_id != node_id or subsumed_id == node_id:
                    continue
                replacement = _drop_hardwired(query, context, subsumed_id, subsumer_id, value=True)
                if replacement is not None:
                    return replacement
        elif presence is False:
            # u never embeds; any u' that subsumes u (u ⊴ u') cannot embed
            # either (its embedding would force one of u).
            for subsumed_id, subsumer_id in pairs:
                if subsumed_id != node_id:
                    continue
                replacement = _drop_hardwired(query, context, subsumer_id, None, value=False)
                if replacement is not None:
                    return replacement
    return query


def _drop_hardwired(
    query: GTPQ,
    context: AnalysisContext,
    victim: str,
    keeper: str | None,
    value: bool,
) -> GTPQ | None:
    """Drop ``victim``'s subtree, assigning its variable to ``value``.

    When the subtree contains output nodes they are relocated into
    ``keeper``'s subtree (Algorithm 1 lines 12–15); if no isomorphic
    counterpart exists the removal is vetoed (returns None).
    """
    if victim == query.root:
        return None
    analysis = context.analysis(query)
    subtree = set(query.subtree_nodes(victim))
    relocation: dict[str, str] = {}
    if keeper is not None:
        keeper_subtree = query.subtree_nodes(keeper)
        for output in query.outputs:
            if output not in subtree:
                continue
            taken = set(relocation.values()) | set(query.outputs)
            counterpart = next(
                (
                    candidate
                    for candidate in keeper_subtree
                    if query.nodes[candidate].is_backbone
                    and candidate not in taken
                    and analysis.similar(output, candidate)
                    and _subtree_shapes_match(query, output, candidate)
                ),
                None,
            )
            if counterpart is None:
                return None
            relocation[output] = counterpart
    elif any(output in subtree for output in query.outputs):
        return None  # cannot drop outputs without a relocation target

    parent_id = query.parent[victim]
    new_fs = simplify(substitute(query.fs(parent_id), {victim: value}))
    new_outputs = [relocation.get(output, output) for output in query.outputs]
    candidate = query.copy(
        drop=[victim],
        structural_override={parent_id: new_fs},
        outputs_override=new_outputs,
    )
    # Soundness guard (documented deviation from Algorithm 1 as printed):
    # hardwiring p_{u'} is only valid when the *remaining* query still
    # forces u's embedding.  Verify each removal with the Theorem-3
    # equivalence procedure — subsumption remains the search heuristic,
    # the homomorphism check is the correctness gate.
    if not are_equivalent(query, candidate, context):
        return None
    return candidate


def _subtree_shapes_match(query: GTPQ, left: str, right: str) -> bool:
    """Isomorphism of the two subtree patterns (shape + edge types)."""

    def shape(node_id: str):
        children = sorted((query.edge_type(c).value, shape(c)) for c in query.children[node_id])
        return tuple(children)

    left_edge = query.edge_types.get(left, EdgeType.DESCENDANT)
    right_edge = query.edge_types.get(right, EdgeType.DESCENDANT)
    if left_edge != right_edge:
        return False
    return shape(left) == shape(right)
