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

from itertools import chain

from ..query.gtpq import EdgeType
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
        context: pruning context (graph, query, reachability index).
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
            child_ids = [c for c in query.children[node_id] if c in fragment_set]
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
    is_child = set(mats[child_id]).__contains__
    sources = mats[parent_id]
    for source, successors in zip(sources, map(graph.successors, sources)):
        targets = list(filter(is_child, successors))
        result.branches.setdefault((parent_id, source), {})[child_id] = targets


def _ad_edges(context: PruningContext, result: MatchingGraph, parent_id, child_id, mats) -> None:
    """AD edge matches: the index's ``edges`` kernel names the child
    components a source component strictly reaches, in the child's
    candidate order.  All sources in one component reach the same
    candidates, so the list is made once per source component."""
    reach = context.reach
    by_component: dict[int, list[int]] = {}
    for candidate, component in zip(mats[child_id], reach.components(mats[child_id])):
        by_component.setdefault(component, []).append(candidate)
    targets = context.prepared_set(child_id, mats[child_id])
    edges, members = reach.index.edges, by_component.__getitem__
    targets_of: dict[int, list[int]] = {}
    for source, source_component in zip(mats[parent_id], reach.components(mats[parent_id])):
        found = targets_of.get(source_component)
        if found is None:
            found = list(chain.from_iterable(map(members, edges(source_component, targets))))
            targets_of[source_component] = found
        result.branches.setdefault((parent_id, source), {})[child_id] = list(found)
