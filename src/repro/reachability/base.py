"""Shared infrastructure for reachability indexes.

All indexes are built over a :class:`Dag` — for cyclic data graphs this is
the SCC condensation, so *strict* (nonempty-path) reachability between data
nodes decomposes into:

* same component: reachable iff the component is cyclic;
* different components: DAG reachability between the components.

Every index counts the elements it touches in an :class:`IndexCounters`
instance so the I/O experiment (paper Appendix C.1, Fig. 10) can report the
``#index`` metric without instrumenting call sites.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Collection

from ..graph.condensation import Dag
from ..graph.digraph import DataGraph

__all__ = ["Dag", "DagIndex", "GraphReachability", "IndexCounters"]


class IndexCounters:
    """Mutable counters of index activity (the paper's ``#index`` metric)."""

    __slots__ = ("lookups", "entries_scanned")

    def __init__(self):
        self.lookups = 0
        self.entries_scanned = 0

    def reset(self) -> None:
        self.lookups = 0
        self.entries_scanned = 0

    def snapshot(self) -> dict[str, int]:
        return {"lookups": self.lookups, "entries_scanned": self.entries_scanned}


class DagIndex(ABC):
    """Interface of DAG-level reachability indexes.

    ``reaches(x, y)`` answers *strict* reachability inside the DAG: is there
    a nonempty path from ``x`` to ``y``?  (``reaches(x, x)`` is always False
    on a DAG; cyclic self-reachability is handled by the
    :class:`GraphReachability` wrapper.)
    """

    #: human-readable index name used by the factory and bench reports.
    name: str = "abstract"

    def __init__(self, dag: Dag):
        self.dag = dag
        self.counters = IndexCounters()

    @abstractmethod
    def reaches(self, source: int, target: int) -> bool:
        """Strict DAG reachability."""

    def rows_for(self, components) -> dict[int, int] | None:
        """``component -> descendant row`` (an int, bit ``d`` set iff the
        component strictly reaches ``d``) covering at least
        ``components``, for indexes that store such rows; None (the
        default) sends the pruning passes through per-pair ``reaches``."""
        return None

    def index_size(self) -> int:
        """Total number of stored index entries (for size comparisons)."""
        return 0


class GraphReachability:
    """Strict data-node reachability: condensation + a DAG-level index.

    This is the object the query engine works with.  It exposes both the
    plain ``reaches`` test and the mapping between data nodes and DAG
    (component) nodes, which the pruning machinery needs in order to batch
    candidates by chain.  Mapping a node numbers its component on demand
    (:mod:`repro.graph.condensation`): batch sites call
    :meth:`components` once per candidate set.
    """

    def __init__(self, graph: DataGraph, index_factory):
        """Args:
            graph: the data graph.
            index_factory: callable ``Dag -> DagIndex``; it is handed the
                completed condensation DAG.
        """
        self.graph = graph
        structure = graph.structure()
        self.condensation = structure.condensation
        self.dag = structure.dag
        self.index = index_factory(self.dag)

    @property
    def counters(self) -> IndexCounters:
        return self.index.counters

    def components(self, nodes: Collection[int]) -> list[int]:
        """The component ids of ``nodes``, in order, numbering first
        whatever is not numbered yet."""
        scc_of = self.condensation.scc_of
        try:
            mapped = list(map(scc_of.__getitem__, nodes))
            if not mapped or min(mapped) >= 0:
                return mapped
        except IndexError:  # a node the numbering has not marked yet
            pass
        self.condensation.cover(nodes)
        return list(map(scc_of.__getitem__, nodes))

    def component_of(self, data_node: int) -> int:
        scc_of = self.condensation.scc_of
        if data_node < len(scc_of) and scc_of[data_node] >= 0:
            return scc_of[data_node]
        return self.components((data_node,))[0]

    def is_cyclic_component(self, component: int) -> bool:
        return self.condensation.cyclic[component]

    def reaches(self, source: int, target: int) -> bool:
        """Is ``target`` a strict descendant of ``source`` (nonempty path)?"""
        cs, ct = self.component_of(source), self.component_of(target)
        if cs == ct:
            return self.condensation.cyclic[cs]
        return self.index.reaches(cs, ct)
