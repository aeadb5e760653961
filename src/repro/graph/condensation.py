"""Strongly connected components, DAG condensation, structural snapshots.

The paper's AD relationship means "nonempty path", so on cyclic graphs every
node of a non-trivial SCC is a descendant of every other (and of itself).
All reachability indexes in :mod:`repro.reachability` are built on the
condensation DAG; this module computes it with an iterative Tarjan SCC so
deep graphs do not hit Python's recursion limit.

A graph version has exactly one condensation: the :class:`GraphStructure`
snapshot :meth:`DataGraph.structure() <repro.graph.digraph.DataGraph.structure>`
hands out.  Graph statistics, full and partial index builds all read that
one object, and an append-only mutation *extends* it
(:meth:`Condensation.extended`) instead of condensing the graph again.
"""

from __future__ import annotations

import heapq
from itertools import chain
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .digraph import DataGraph


class Condensation:
    """The condensation DAG of a :class:`~repro.graph.digraph.DataGraph`.

    Instances are immutable once built: services, pickles and user code
    may hold one across graph mutations.

    Attributes:
        scc_of: for each data node, the id of its component (``0..k-1``),
            numbered in *reverse topological* order of the condensation
            (Tarjan's output order), i.e. if component ``a`` reaches ``b``
            then ``a > b``.
        members: for each component, the list of data nodes inside it.
        cyclic: for each component, True iff it contains a cycle (size > 1
            or a self-loop) — exactly when its nodes are their own
            descendants under nonempty-path semantics.
    """

    __slots__ = ("scc_of", "members", "cyclic", "_succ", "_pred", "_edge_count")

    def __init__(self, graph: DataGraph):
        self.scc_of: list[int] = []
        self.members: list[list[int]] = []
        self.cyclic: list[bool] = []
        self._succ: list[list[int]] = []
        self._pred: list[list[int]] = []
        self._edge_count = 0
        self._absorb(graph._succ)

    def extended(self, graph: DataGraph) -> "Condensation":
        """The condensation of ``graph``, grown from this one.

        ``graph`` must be the graph this condensation describes plus an
        *append-only* delta: nodes from ``len(self.scc_of)`` on are new and
        no new edge leaves an old node.  Old nodes then cannot reach new
        ones, so a from-scratch Tarjan would walk the old part first and
        number it exactly as here; running it over the new nodes alone
        continues that numbering.  The result equals ``Condensation(graph)``
        id for id, in every field.

        Copy-on-write: the outer lists are new and an old component's
        predecessor list is copied before a new component is appended to
        it, so ``self`` never changes.
        """
        grown = Condensation.__new__(Condensation)
        grown.scc_of = list(self.scc_of)
        grown.members = list(self.members)
        grown.cyclic = list(self.cyclic)
        grown._succ = list(self._succ)
        grown._pred = list(self._pred)
        grown._edge_count = self._edge_count
        grown._absorb(graph._succ)
        return grown

    def _absorb(self, adjacency: list[list[int]]) -> None:
        """Condense the nodes of ``adjacency`` this object does not cover yet."""
        scc_of, members, cyclic = self.scc_of, self.members, self.cyclic
        succ, pred = self._succ, self._pred
        first = len(members)
        _tarjan(adjacency, scc_of, members)
        component_of = scc_of.__getitem__
        copied: set[int] = set()
        for component in range(first, len(members)):
            nodes = members[component]
            targets = set(map(component_of, adjacency[nodes[0]]))
            for node in nodes[1:]:
                targets.update(map(component_of, adjacency[node]))
            # An edge inside the component: a self-loop when it has one node.
            inner = component in targets
            if inner:
                targets.discard(component)
            cyclic.append(inner or len(nodes) > 1)
            ordered = sorted(targets) if len(targets) > 1 else list(targets)
            succ.append(ordered)
            pred.append([])
            self._edge_count += len(ordered)
            for target in ordered:
                if target < first and target not in copied:
                    # An old list the snapshot being extended still reads.
                    copied.add(target)
                    pred[target] = list(pred[target])
                pred[target].append(component)

    # -- DAG view -------------------------------------------------------
    @property
    def num_components(self) -> int:
        return len(self.members)

    @property
    def num_edges(self) -> int:
        return self._edge_count

    def successors(self, component: int) -> list[int]:
        return self._succ[component]

    def predecessors(self, component: int) -> list[int]:
        return self._pred[component]

    def topological_order(self) -> list[int]:
        """Components in topological order (sources first).

        Tarjan numbers components in reverse topological order, so this is
        just the reversed id sequence — no extra traversal needed.
        """
        return list(range(len(self.members) - 1, -1, -1))

    def is_trivial(self) -> bool:
        """True iff the input graph was already a DAG without self-loops."""
        return not any(self.cyclic)


def _tarjan(adjacency: list[list[int]], scc_of: list[int], members: list[list[int]]) -> None:
    """Iterative Tarjan SCC over the nodes ``scc_of`` does not cover yet.

    Appends to ``scc_of`` and ``members`` in place, numbering components in
    reverse topological order (a component is numbered only after
    everything it reaches).  Nodes ``scc_of`` already covers count as
    visited and closed, which is exact when none of them reaches an
    uncovered node.
    """
    first, n = len(scc_of), len(adjacency)
    unvisited, closed = -1, n  # discovery indices lie strictly between
    index_of = [closed] * first + [unvisited] * (n - first)
    low_link = [0] * n
    scc_of.extend([unvisited] * (n - first))
    stack: list[int] = []
    next_index = 0

    for start in range(first, n):
        if index_of[start] != unvisited:
            continue
        index_of[start] = low_link[start] = next_index
        next_index += 1
        stack.append(start)
        # The DFS path and, per node on it, the successors not yet tried.
        path = [start]
        pending = [iter(adjacency[start])]
        while path:
            node = path[-1]
            for successor in pending[-1]:
                seen = index_of[successor]
                if seen == unvisited:
                    index_of[successor] = low_link[successor] = next_index
                    next_index += 1
                    stack.append(successor)
                    path.append(successor)
                    pending.append(iter(adjacency[successor]))
                    break
                # A closed node compares greater than any low link.
                if seen < low_link[node]:
                    low_link[node] = seen
            else:
                # Node finished: close its component if it is a root.
                path.pop()
                pending.pop()
                low = low_link[node]
                if low == index_of[node]:
                    component: list[int] = []
                    number = len(members)
                    while True:
                        member = stack.pop()
                        index_of[member] = closed
                        scc_of[member] = number
                        component.append(member)
                        if member == node:
                            break
                    members.append(component)
                if path and low < low_link[path[-1]]:
                    low_link[path[-1]] = low


class Dag:
    """A plain adjacency-list DAG with a fixed topological order."""

    __slots__ = ("succ", "pred", "order")

    def __init__(self, succ: list[list[int]], pred: list[list[int]], order: list[int]):
        self.succ = succ
        self.pred = pred
        self.order = order  # sources first

    @property
    def num_nodes(self) -> int:
        return len(self.succ)

    @property
    def num_edges(self) -> int:
        return sum(len(targets) for targets in self.succ)

    @classmethod
    def from_condensation(cls, condensation: Condensation) -> "Dag":
        """The condensation's own adjacency lists, viewed as a DAG."""
        return cls(condensation._succ, condensation._pred, condensation.topological_order())

    @classmethod
    def from_graph(cls, graph: DataGraph) -> "Dag":
        """Treat an acyclic :class:`DataGraph` directly as a DAG.

        Raises ``ValueError`` when the graph is cyclic — condense first.
        """
        # Deferred import: traversal imports the graph, which imports this.
        from .traversal import topological_order

        order = topological_order(graph)
        if any(graph.has_edge(node, node) for node in graph.nodes()):
            raise ValueError("graph has self-loops; condense first")
        succ = [list(graph.successors(node)) for node in graph.nodes()]
        pred = [list(graph.predecessors(node)) for node in graph.nodes()]
        return cls(succ, pred, order)


class GraphStructure:
    """The structural snapshot of one graph version.

    Attributes:
        condensation: the version's :class:`Condensation`.
        dag: its :class:`Dag` view — what every DAG index is built over.
        version: the :attr:`DataGraph.version` the snapshot describes.
        lineage: a token shared by exactly the snapshots grown out of one
            another by :meth:`extended`.  Along a lineage an old component
            keeps its id and successor list and cannot reach a newer one,
            so what is derived per component from its successors alone (a
            descendant row, a depth) stays exact.
        depths: longest-path depth per component; None until
            :meth:`DataGraph.component_depths` asks, then carried along.
    """

    __slots__ = ("condensation", "dag", "version", "lineage", "depths")

    def __init__(self, condensation: Condensation, version: int, lineage: object = None):
        self.condensation = condensation
        self.dag = Dag.from_condensation(condensation)
        self.version = version
        self.lineage = object() if lineage is None else lineage
        self.depths: list[int] | None = None

    def extended(self, graph: DataGraph) -> "GraphStructure":
        """The snapshot of ``graph`` — this one plus an append-only delta
        (:meth:`Condensation.extended`) — on the same lineage; known
        depths are carried over and only the delta is walked."""
        grown = GraphStructure(self.condensation.extended(graph), graph.version, self.lineage)
        if self.depths is not None:
            grown.depths = component_depths(grown.dag.succ, self.depths)
        return grown


def component_depths(successors: list[list[int]], known: list[int]) -> list[int]:
    """Longest-path depths over ``successors``, grown from ``known``: the
    depths of components ``0..len(known)-1`` before the newer ones existed
    (copied, not changed).  Ids are reverse topological, so descending
    order visits a component after its predecessors: the new components
    are walked that way, then ``depth + 1`` is pushed down through exactly
    the old components whose depth grew, highest id first."""
    first, count = len(known), len(successors)
    depths = known + [0] * (count - first)
    grown: set[int] = set()
    heap: list[int] = []  # the old components of ``grown`` still to walk, negated
    for component in chain(range(count - 1, first - 1, -1), _pop_descending(heap)):
        below = depths[component] + 1
        for successor in successors[component]:
            if below > depths[successor]:
                depths[successor] = below
                if successor < first and successor not in grown:
                    grown.add(successor)
                    heapq.heappush(heap, -successor)
    return depths


def _pop_descending(heap: list[int]):
    while heap:
        yield -heapq.heappop(heap)


def condense(graph: DataGraph) -> Condensation:
    """The condensation of ``graph`` (its shared structural snapshot's)."""
    return graph.structure().condensation
