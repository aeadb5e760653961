"""Graph statistics used by Table 1 and the dataset descriptions."""

from __future__ import annotations

from dataclasses import dataclass

from .digraph import DataGraph


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics of a data graph.

    Mirrors the quantities the paper reports: node/edge counts (Table 1),
    distinct label counts (arXiv: 1132 labels) and depth (XMark: avg ~5).
    """

    num_nodes: int
    num_edges: int
    num_labels: int
    num_roots: int
    max_depth: int
    avg_depth: float
    is_dag: bool

    def row(self) -> dict[str, float]:
        """Tabular form used by the bench harness."""
        return {
            "nodes": self.num_nodes,
            "edges": self.num_edges,
            "labels": self.num_labels,
            "roots": self.num_roots,
            "max_depth": self.max_depth,
            "avg_depth": round(self.avg_depth, 2),
        }


def graph_stats(graph: DataGraph) -> GraphStats:
    """Compute :class:`GraphStats` for ``graph``.

    Acyclicity and the depth figures are read off the graph's structural
    snapshot (:meth:`DataGraph.structure`), so they cost no traversal of
    their own.  Depth is the longest-path depth of each *component* of
    the condensation — of each node, on an acyclic graph — so it is
    always defined.
    """
    condensation = graph.structure().condensation
    successors = condensation._succ
    # Component ids are reverse topological: descending order visits every
    # component after all of its predecessors.
    depths = [0] * len(successors)
    for component in range(len(successors) - 1, -1, -1):
        below = depths[component] + 1
        for successor in successors[component]:
            if below > depths[successor]:
                depths[successor] = below

    return GraphStats(
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        num_labels=len(graph.distinct_labels()),
        num_roots=len(graph.roots()),
        max_depth=max(depths) if depths else 0,
        avg_depth=(sum(depths) / len(depths)) if depths else 0.0,
        is_dag=condensation.is_trivial(),
    )
