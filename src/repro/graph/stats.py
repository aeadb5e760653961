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
    always defined.  After an append-only mutation only the delta is
    paid: the snapshot is extended, the depths are pushed down from the
    new components (:meth:`DataGraph.component_depths`), and roots and
    labels are counted as they arrive.
    """
    depths = graph.component_depths()
    return GraphStats(
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        num_labels=graph.num_labels,
        num_roots=graph.num_roots,
        max_depth=max(depths) if depths else 0,
        avg_depth=(sum(depths) / len(depths)) if depths else 0.0,
        is_dag=graph.structure().condensation.is_trivial(),
    )
