"""Attributed digraph substrate (docs/ARCHITECTURE.md, Layer 3)."""

from .condensation import Condensation, Dag, GraphStructure, StaleLineageError, condense
from .digraph import DataGraph
from .stats import GraphStats, depth_stats, graph_stats
from .traversal import (
    ancestors,
    bfs_layers,
    descendants,
    is_dag,
    node_depths,
    reaches,
    topological_order,
)

__all__ = [
    "Condensation",
    "Dag",
    "DataGraph",
    "GraphStats",
    "GraphStructure",
    "StaleLineageError",
    "ancestors",
    "bfs_layers",
    "condense",
    "depth_stats",
    "descendants",
    "graph_stats",
    "is_dag",
    "node_depths",
    "reaches",
    "topological_order",
]
