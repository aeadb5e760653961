"""Graph statistics used by Table 1 and the dataset descriptions."""

from __future__ import annotations

from dataclasses import dataclass

from .digraph import DataGraph


class _OnFirstRead:
    """A dataclass field that may be given as a zero-argument callable:
    it is called at the field's first read and replaced by its result."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.slot = "_" + name

    def __get__(self, stats, owner=None):
        if stats is None:
            raise AttributeError(self.slot)  # the field has no default
        value = getattr(stats, self.slot)
        if callable(value):
            value = value()
            object.__setattr__(stats, self.slot, value)
        return value

    def __set__(self, stats, value) -> None:
        object.__setattr__(stats, self.slot, value)


@dataclass(frozen=True)
class GraphStats:
    """What the planner and the index ladder read about a data graph:
    node/edge counts (Table 1), distinct label counts (arXiv: 1132 labels),
    roots and acyclicity.  Depth is not among them: :func:`depth_stats`
    computes it on request.  :func:`graph_stats` defers ``is_dag`` to its
    first read, because acyclicity completes the component numbering and
    only the ladder rungs above the closure bound read it."""

    num_nodes: int
    num_edges: int
    num_labels: int
    num_roots: int
    is_dag: bool = _OnFirstRead()  # type: ignore[assignment]

    def row(self) -> dict[str, int]:
        """Tabular form used by the bench harness."""
        return {
            "nodes": self.num_nodes,
            "edges": self.num_edges,
            "labels": self.num_labels,
            "roots": self.num_roots,
        }


def graph_stats(graph: DataGraph) -> GraphStats:
    """Compute :class:`GraphStats` for ``graph``.

    Nothing here walks the graph: the counts are kept as nodes, edges and
    labels arrive, and acyclicity is deferred to its first read, which
    completes this version's component numbering
    (:meth:`DataGraph.structure`).
    """
    structure = graph.structure()
    return GraphStats(
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        num_labels=graph.num_labels,
        num_roots=graph.num_roots,
        is_dag=lambda: structure.complete().is_trivial(),
    )


def depth_stats(graph: DataGraph) -> tuple[int, float]:
    """The maximum and average longest-path depth of ``graph``, the paper's
    depth figures (XMark: avg ~5).

    Depth is taken per *component* of the condensation — per node, on an
    acyclic graph — so it is always defined.  One walk over the completed
    numbering at every call: components are numbered in reverse
    topological order, so descending ids visit each after its
    predecessors.
    """
    successors = graph.structure().dag.succ
    depths = [0] * len(successors)
    for component in range(len(successors) - 1, -1, -1):
        below = depths[component] + 1
        for successor in successors[component]:
            if below > depths[successor]:
                depths[successor] = below
    return (max(depths), sum(depths) / len(depths)) if depths else (0, 0.0)
