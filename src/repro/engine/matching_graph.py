"""The maximal matching graph — compact graph-shaped results (Section 4.3).

After pruning, the matches of the *shrunk prime subtree* are materialized
as a graph ``Qg(G) = (Vr, Er)``: one vertex per surviving candidate, one
edge per matched query edge.  Every data node appears at most once and
every structural relationship is a single edge — the paper's alternative
to exponential tuple sets (space at most quadratic).

Each vertex keeps one *branch list* per query-child, holding the vertices
matching that child (Example 12's ``bch`` lists).
"""

from __future__ import annotations

from ..query.gtpq import EdgeType
from ..reachability.contour import merge_succ_lists
from ..reachability.partial import mask
from .prune import MatSets, PruningContext


class MatchingGraph:
    """Matches of a (shrunk) prime subtree in graph form.

    Attributes:
        roots: the fragment roots (query-node ids of subtree fragments).
        vertices: per query node, the list of matched data nodes.
        branches: ``branches[(query_node, data_node)][child_id]`` is the
            list of data nodes matching ``child_id`` reachable from
            ``data_node`` under the edge's semantics.
    """

    def __init__(self):
        self.roots: list[str] = []
        self.children: dict[str, list[str]] = {}
        self.vertices: dict[str, list[int]] = {}
        self.branches: dict[tuple[str, int], dict[str, list[int]]] = {}

    @property
    def num_vertices(self) -> int:
        return sum(len(nodes) for nodes in self.vertices.values())

    @property
    def num_edges(self) -> int:
        return sum(
            len(targets)
            for branch_lists in self.branches.values()
            for targets in branch_lists.values()
        )


def build_matching_graph(
    context: PruningContext,
    mats: MatSets,
    fragments: list[list[str]],
) -> MatchingGraph:
    """Compute matches for every query edge of the shrunk prime subtree.

    Args:
        context: pruning context (graph, query, 3-hop index).
        mats: fully pruned candidate sets.
        fragments: each fragment is a pre-order node list of one connected
            piece of the shrunk prime subtree.
    """
    query, graph = context.query, context.graph
    result = MatchingGraph()
    for fragment in fragments:
        fragment_set = set(fragment)
        result.roots.append(fragment[0])
        for node_id in fragment:
            child_ids = [
                c for c in query.children[node_id] if c in fragment_set
            ]
            result.children[node_id] = child_ids
            result.vertices.setdefault(node_id, list(mats[node_id]))
            if not child_ids:
                continue
            for child_id in child_ids:
                result.vertices.setdefault(child_id, list(mats[child_id]))
                if query.edge_type(child_id) is EdgeType.CHILD:
                    _pc_edges(graph, result, node_id, child_id, mats)
                else:
                    _ad_edges(context, result, node_id, child_id, mats)
    return result


def _pc_edges(graph, result: MatchingGraph, parent_id, child_id, mats) -> None:
    child_set = set(mats[child_id])
    for source in mats[parent_id]:
        targets = [t for t in graph.successors(source) if t in child_set]
        result.branches.setdefault((parent_id, source), {})[child_id] = targets


def _ad_edges(
    context: PruningContext, result: MatchingGraph, parent_id, child_id, mats
) -> None:
    """AD edge matches via per-source successor contours.

    For each source the candidates of the child are grouped by chain in
    ascending order: once one chain member is reachable all deeper members
    are, so the tail of each chain is filled without index probes (the
    optimization the paper describes for reusing PruneUpward's technique).
    """
    index, reach = context.index, context.reach
    if index is None:
        _ad_edges_generic(context, result, parent_id, child_id, mats)
        return
    cover = index.cover
    by_component: dict[int, list[int]] = {}
    for candidate, component in zip(mats[child_id], reach.components(mats[child_id])):
        by_component.setdefault(component, []).append(candidate)
    by_chain: dict[int, list[int]] = {}
    for component in by_component:
        by_chain.setdefault(cover.cid[component], []).append(component)
    for members in by_chain.values():
        members.sort(key=lambda c: cover.sid[c])

    from ..reachability.contour import contour_reaches_node

    for source, source_component in zip(mats[parent_id], reach.components(mats[parent_id])):
        contour = merge_succ_lists(index, [source_component])
        targets: list[int] = []
        for members in by_chain.values():
            confirmed = False
            for component in members:
                if confirmed:
                    targets.extend(by_component[component])
                    continue
                if component == source_component:
                    # Own component: included only when cyclic; everything
                    # deeper on this chain is reachable via real edges.
                    if reach.is_cyclic_component(component):
                        targets.extend(by_component[component])
                    confirmed = True
                    continue
                if contour_reaches_node(index, component, contour):
                    confirmed = True
                    targets.extend(by_component[component])
        result.branches.setdefault((parent_id, source), {})[child_id] = targets


def _ad_edges_generic(
    context: PruningContext, result: MatchingGraph, parent_id, child_id, mats
) -> None:
    """AD edge matches of non-3-hop indexes.

    Target lists are memoized per source component — all sources in one
    component strictly reach the same candidates: one row AND (one
    counted lookup) where the index hands out rows, else a ``reaches``
    probe per child component.  Targets keep the child's candidate order
    either way.
    """
    reach = context.reach
    dag_index = reach.index
    by_component: dict[int, list[int]] = {}
    for candidate, component in zip(mats[child_id], reach.components(mats[child_id])):
        by_component.setdefault(component, []).append(candidate)
    source_components = reach.components(mats[parent_id])
    rows = dag_index.rows_for(set(source_components))
    if rows is not None:
        child_mask = mask(by_component)
        rank = {component: position for position, component in enumerate(by_component)}
    targets_of: dict[int, list[int]] = {}
    for source, source_component in zip(mats[parent_id], source_components):
        targets = targets_of.get(source_component)
        if targets is None:
            targets = []
            if rows is not None:
                # Row kernel: the child components below this source.
                dag_index.counters.lookups += 1
                hits = rows[source_component] & child_mask
                if reach.is_cyclic_component(source_component) and source_component in rank:
                    hits |= 1 << source_component
                for component in _hit_components(hits, rank):
                    targets.extend(by_component[component])
            else:
                for component, members in by_component.items():
                    if component == source_component:
                        if reach.is_cyclic_component(component):
                            targets.extend(members)
                    elif dag_index.reaches(source_component, component):
                        targets.extend(members)
            targets_of[source_component] = targets
        result.branches.setdefault((parent_id, source), {})[child_id] = list(targets)


def _hit_components(hits: int, rank: dict[int, int]) -> list[int]:
    """The components of ``rank`` whose bit is set in ``hits``, in rank
    order — walked by set bit or by component, whichever is shorter."""
    if hits.bit_count() >= len(rank):
        return [component for component in rank if hits >> component & 1]
    components = []
    while hits:
        lowest = hits & -hits
        components.append(lowest.bit_length() - 1)
        hits ^= lowest
    components.sort(key=rank.__getitem__)
    return components
