"""Index factory: build a reachability service by name, or pick one.

The registry names the five index families something reaches —
``3hop``, ``tc``, ``interval``, ``tree-cover`` and ``sspi`` (see
:func:`available_indexes`).  Besides the explicit names, ``index="auto"`` selects an index from the
shape of the data graph (see :func:`select_auto_index`): the lazily
filled descendant closure (``tc``) while its worst case fits a memory
bound, then interval labels on forests, the tree-cover on near-tree DAGs,
and 3-hop — the paper's default — everywhere else.
"""

from __future__ import annotations

from typing import Callable

from ..graph.digraph import DataGraph
from ..graph.stats import GraphStats, graph_stats
from ..plan.cost import AUTO_CLOSURE_MAX_BYTES, AUTO_NEAR_TREE_RATIO, choose_index
from .base import Dag, DagIndex, GraphReachability
from .interval import IntervalIndex
from .partial import DescendantClosure
from .sspi import SSPIIndex
from .three_hop import ThreeHopIndex
from .tree_cover import TreeCoverIndex

_REGISTRY: dict[str, Callable[[Dag], DagIndex]] = {
    "3hop": ThreeHopIndex,
    "tc": DescendantClosure,
    "sspi": SSPIIndex,
    "tree-cover": TreeCoverIndex,
    "interval": IntervalIndex,
}

__all__ = [
    "AUTO_CLOSURE_MAX_BYTES",
    "AUTO_NEAR_TREE_RATIO",
    "available_indexes",
    "build_reachability",
    "resolve_index",
    "select_auto_index",
]


def available_indexes() -> list[str]:
    """Names accepted by :func:`build_reachability` (``"auto"`` excluded)."""
    return sorted(_REGISTRY)


def select_auto_index(stats: GraphStats) -> str:
    """Cost-based index choice from graph statistics alone.

    The decision lives in the physical planner's cost model; this alias
    (plus the re-exported ``AUTO_*`` thresholds) keeps the historical
    factory API working.  See :func:`repro.plan.cost.choose_index` for
    the heuristic ladder.
    """
    return choose_index(stats)


def resolve_index(graph: DataGraph, index: str) -> str:
    """Resolve ``"auto"`` against ``graph``; pass explicit names through."""
    if index == "auto":
        return select_auto_index(graph_stats(graph))
    if index not in _REGISTRY:
        raise ValueError(
            f"unknown index {index!r}; available: "
            f"{', '.join(available_indexes())} (or 'auto')"
        )
    return index


def build_reachability(graph: DataGraph, index: str = "3hop") -> GraphReachability:
    """Build a :class:`GraphReachability` service over ``graph``.

    Args:
        graph: the data graph (cyclic graphs are condensed automatically).
        index: one of :func:`available_indexes` (default the paper's
            3-hop), or ``"auto"`` for the :func:`select_auto_index`
            heuristic.
    """
    factory = _REGISTRY[resolve_index(graph, index)]
    return GraphReachability(graph, factory)
