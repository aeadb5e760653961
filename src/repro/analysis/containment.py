"""Containment and equivalence of GTPQs (paper Theorem 3).

``Q1 ⊑ Q2`` iff there is a *homomorphism* from Q2 to Q1: a mapping of Q2's
independent nodes onto Q1's nodes (non-independent nodes map to ⊥) that
respects output correspondence, attribute subsumption, child embedding,
and whose induced variable renaming makes
``fcs(Q1.root) -> fcs(Q2.root)[renamed]`` a tautology.

The search is a straightforward backtracking over candidate images — the
problem is co-NP-hard (Theorem 4), and queries are small.
"""

from __future__ import annotations

from ..logic import entails, rename
from ..query.gtpq import GTPQ, EdgeType
from .satisfiability import normalize_query
from .structure import AnalysisContext


def find_homomorphism(
    source: GTPQ, target: GTPQ, context: AnalysisContext | None = None
) -> dict[str, str] | None:
    """A homomorphism from ``source`` onto ``target``, or ``None``.

    The returned mapping covers the independent nodes of ``source``
    (non-independent nodes are implicitly ⊥).  ``context`` shares the two
    queries' analyses with the caller's other checks on the same objects.
    """
    if context is None:
        context = AnalysisContext()
    source = normalize_query(source, context)
    target = normalize_query(target, context)
    if len(source.outputs) != len(target.outputs):
        return None
    source_analysis = context.analysis(source)
    target_analysis = context.analysis(target)
    independent = [
        node_id
        for node_id in source.depth_first()  # parents first
        if node_id in source_analysis.independent_nodes
    ]
    if source.root not in source_analysis.independent_nodes:
        return None

    # Output correspondence is positional: result tuples must align.
    pinned = dict(zip(source.outputs, target.outputs))
    # Copies of one query (the compiler's only case) share its predicate
    # relation; two unrelated queries compare their predicates directly.
    relation = source.relation()
    if target.relation() is relation:
        subsumes = relation.subsumes
    else:
        def subsumes(specific: str, general: str) -> bool:
            return target.attribute(specific).subsumes(source.attribute(general))

    target_nodes = list(target.nodes)
    target_descendants = {
        node_id: set(target.subtree_nodes(node_id)) - {node_id} for node_id in target.nodes
    }

    def candidates(node_id: str, image_of: dict[str, str]) -> list[str]:
        if node_id in pinned:
            pool = [pinned[node_id]]
        else:
            pool = target_nodes
        parent_id = source.parent.get(node_id)
        out = []
        for candidate in pool:
            if not subsumes(candidate, node_id):
                continue
            if parent_id is not None and parent_id in image_of:
                parent_image = image_of[parent_id]
                if source.edge_type(node_id) is EdgeType.CHILD:
                    if not (
                        target.parent.get(candidate) == parent_image
                        and target.edge_type(candidate) is EdgeType.CHILD
                    ):
                        continue
                elif candidate not in target_descendants[parent_image]:
                    continue
            out.append(candidate)
        return out

    def search(position: int, image_of: dict[str, str]) -> dict[str, str] | None:
        if position == len(independent):
            renamed = rename(source_analysis.fcs(source.root), image_of)
            if entails(target_analysis.fcs(target.root), renamed):
                return dict(image_of)
            return None
        node_id = independent[position]
        for candidate in candidates(node_id, image_of):
            image_of[node_id] = candidate
            found = search(position + 1, image_of)
            if found is not None:
                return found
            del image_of[node_id]
        return None

    return search(0, {})


def is_contained(q1: GTPQ, q2: GTPQ, context: AnalysisContext | None = None) -> bool:
    """``Q1 ⊑ Q2``: every answer of Q1 on any graph is an answer of Q2."""
    return find_homomorphism(q2, q1, context) is not None


def are_equivalent(q1: GTPQ, q2: GTPQ, context: AnalysisContext | None = None) -> bool:
    """``Q1 ≡ Q2``: containment in both directions."""
    if context is None:
        context = AnalysisContext()  # both directions look at the same two queries
    return is_contained(q1, q2, context) and is_contained(q2, q1, context)


def are_isomorphic(q1: GTPQ, q2: GTPQ) -> bool:
    """Equivalence witnessed by bijective homomorphisms (Proposition 5)."""
    context = AnalysisContext()
    forward = find_homomorphism(q2, q1, context)
    backward = find_homomorphism(q1, q2, context)
    if forward is None or backward is None:
        return False
    return (
        len(set(forward.values())) == len(forward)
        and len(set(backward.values())) == len(backward)
        and len(forward) == len(backward)
    )
