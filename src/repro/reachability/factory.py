"""Index factory: build a reachability service by name.

The registry names the five index families something reaches —
``3hop``, ``tc``, ``interval``, ``tree-cover`` and ``sspi`` (see
:func:`available_indexes`).  Besides the explicit names, ``index="auto"``
is ``tc`` at every graph size: the descendant closure, filled on demand.
In a session it fills under a byte budget
(:data:`~repro.plan.cost.AUTO_CLOSURE_MAX_BYTES`), and past it the
session runs the ladder's pick for the version
(:func:`~repro.plan.cost.choose_index`); built here, it has no budget.
"""

from __future__ import annotations

from typing import Callable

from ..graph.digraph import DataGraph
from ..plan.cost import AUTO_CLOSURE_MAX_BYTES, AUTO_NEAR_TREE_RATIO
from .base import Dag, DagIndex, GraphReachability
from .interval import IntervalIndex
from .partial import DescendantClosure, PartialReachability
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
]


def available_indexes() -> list[str]:
    """Names accepted by :func:`build_reachability` (``"auto"`` excluded)."""
    return sorted(_REGISTRY)


def resolve_index(graph: DataGraph, index: str) -> str:
    """Resolve ``"auto"`` to ``tc``, whatever ``graph``, and pass explicit
    names through (``ValueError`` for unknown ones)."""
    if index == "auto":
        return "tc"
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
            3-hop), or ``"auto"`` (``tc``, see :func:`resolve_index`).

    Every index but ``tc`` completes the graph's component numbering
    first; ``tc`` numbers only the cones its queries map, and has no
    budget here.
    """
    name = resolve_index(graph, index)
    if name == "tc":
        return PartialReachability(graph)
    return GraphReachability(graph, _REGISTRY[name])
