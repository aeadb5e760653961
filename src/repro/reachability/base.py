"""Shared infrastructure for reachability indexes.

All indexes are built over a :class:`Dag` — for cyclic data graphs this is
the SCC condensation, so *strict* (nonempty-path) reachability between data
nodes decomposes into:

* same component: reachable iff the component is cyclic;
* different components: DAG reachability between the components.

Every index counts the elements it touches in an :class:`IndexCounters`
instance so the I/O experiment (paper Appendix C.1, Fig. 10) can report the
``#index`` metric without instrumenting call sites.

GTEA's pruning passes and matching graph ask an index three set-level
questions about AD (ancestor-descendant) edges — :meth:`DagIndex.downward`,
:meth:`DagIndex.upward` and :meth:`DagIndex.edges` — over sets it has
prepared its own way (:meth:`DagIndex.prepare`, a :class:`ComponentSet`).
The base class answers them with pairwise ``reaches`` probes; a family
with a faster kernel overrides them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import compress
from typing import Collection, Sequence

from ..graph.condensation import Dag
from ..graph.digraph import DataGraph

__all__ = ["ComponentSet", "Dag", "DagIndex", "GraphReachability", "IndexCounters"]


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

    def prepare(self, components: list[int], cyclic: Sequence[bool]) -> ComponentSet:
        """A set of distinct ``components`` (in the caller's order) as
        this family's AD kernels read it; ``cyclic`` flags every
        component of the condensation."""
        return ComponentSet(self, components, cyclic)

    def downward(self, components: set[int], targets: Sequence[ComponentSet]) -> list[set[int]]:
        """Per target set, the components of ``components`` that strictly
        reach some component of it — Procedure 6's AD valuations.
        Pairwise: ``reaches`` against the target's components in
        ascending order, up to the first hit."""
        hits = []
        for target in targets:
            order, own = sorted(target.components), target.cyclic
            hits.append({c for c in components if any(self._probe(c, t, own) for t in order)})
        return hits

    def upward(self, components: set[int], sources: ComponentSet) -> set[int]:
        """The components of ``components`` that some component of
        ``sources`` strictly reaches — Procedure 7's AD filter.
        Pairwise: ``reaches`` from the sources in ascending order, up to
        the first hit."""
        order, own = sorted(sources.components), sources.cyclic
        return {c for c in components if any(self._probe(p, c, own) for p in order)}

    def edges(self, source: int, targets: ComponentSet) -> list[int]:
        """The components of ``targets`` that ``source`` strictly
        reaches, in the target's order — one matching-graph branch list.
        Pairwise: one ``reaches`` per other target component."""
        own = targets.cyclic
        return [c for c in targets.components if self._probe(source, c, own)]

    def _probe(self, source: int, target: int, own: set[int]) -> bool:
        """One pairwise test; a component against itself is the cyclic
        rule (``own``: the set's cyclic components), not a probe."""
        return source in own if source == target else self.reaches(source, target)

    def index_size(self) -> int:
        """Total number of stored index entries (for size comparisons)."""
        return 0


class ComponentSet:
    """One query node's candidate set as an index's AD kernels read it.

    ``components`` are the set's distinct DAG components, in the order
    the caller gave them.  ``cyclic`` holds those that are cyclic: the
    cyclic same-component rule, written once for every family.  A DAG
    index answers strict reachability *between* components; a node of a
    cyclic component also strictly reaches every node of it.  So a
    component hits the set through itself exactly when it is in
    ``cyclic``.  A family subclasses this to add the forms its kernels
    read (a contour, a mask), each built on first read.
    """

    def __init__(self, index: DagIndex, components: list[int], cyclic: Sequence[bool]):
        self.index = index
        self.components = components
        self.cyclic = set(compress(components, map(cyclic.__getitem__, components)))


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
