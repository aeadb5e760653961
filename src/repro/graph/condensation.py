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

A snapshot stores what the descendant closure reads — the component of
each node and each component's successors — and allocates per cycle and
per edge, not per node: a one-node component has no member list and a
component without successors shares one empty tuple.  Member lists and
predecessor lists are derived on first read and kept.  Every list is a
container the cyclic garbage collector walks, and on tree-shaped graphs
nearly every component is a single node and most are leaves.
"""

from __future__ import annotations

import copy
import heapq
from itertools import chain
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from .digraph import DataGraph

#: The adjacency row of every node or component without edges in that
#: direction: one shared empty tuple instead of a list each.
NO_EDGES: tuple[int, ...] = ()


class Condensation:
    """The condensation DAG of a :class:`~repro.graph.digraph.DataGraph`.

    Instances are immutable once built: services, pickles and user code
    may hold one across graph mutations.

    Attributes:
        scc_of: for each data node, the id of its component (``0..k-1``),
            numbered in *reverse topological* order of the condensation
            (Tarjan's output order), i.e. if component ``a`` reaches ``b``
            then ``a > b``.
        cycles: the members of each multi-node component, by component
            id, in the order Tarjan popped them.
        cyclic: for each component, True iff it contains a cycle (size > 1
            or a self-loop) — exactly when its nodes are their own
            descendants under nonempty-path semantics.
    """

    __slots__ = (
        "scc_of",
        "cycles",
        "cyclic",
        "_succ",
        "_edge_count",
        "_cyclic_count",
        "_members",
        "_pred_rows",
    )

    def __init__(self, graph: DataGraph):
        self.scc_of: list[int] = []
        self.cycles: dict[int, list[int]] = {}
        self.cyclic: list[bool] = []
        self._succ: list[Sequence[int]] = []
        self._edge_count = self._cyclic_count = 0
        self._members = self._pred_rows = None
        self._absorb(graph._succ)

    #: The state: what is derived on read is not part of it.
    _STORED = ("scc_of", "cycles", "cyclic", "_succ", "_edge_count", "_cyclic_count")

    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in self._STORED}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._members = self._pred_rows = None

    def extended(self, graph: DataGraph) -> "Condensation":
        """The condensation of ``graph``, grown from this one.

        ``graph`` must be the graph this condensation describes plus an
        *append-only* delta: nodes from ``len(self.scc_of)`` on are new and
        no new edge leaves an old node.  Old nodes then cannot reach new
        ones, so a from-scratch Tarjan would walk the old part first and
        number it exactly as here; running it over the new nodes alone
        continues that numbering.  The result equals ``Condensation(graph)``
        id for id, in every field.

        The stored containers are copied and only appended to, so ``self``
        never changes.  Nothing derived on read is carried over: an old
        component gains predecessors, and the grown condensation derives
        its own member and predecessor lists when they are first read.
        """
        grown = copy.copy(self)  # the stored fields only
        grown.scc_of, grown.cycles = list(self.scc_of), dict(self.cycles)
        grown.cyclic, grown._succ = list(self.cyclic), list(self._succ)
        grown._absorb(graph._succ)
        return grown

    def _absorb(self, adjacency: Sequence[Sequence[int]]) -> None:
        """Condense the nodes of ``adjacency`` this object does not cover yet."""
        scc_of, cycles, cyclic, succ = self.scc_of, self.cycles, self.cyclic, self._succ
        first = len(cyclic)
        heads = _tarjan(adjacency, scc_of, first, cycles)
        component_of = scc_of.__getitem__
        for component, head in enumerate(heads, first):
            nodes = cycles.get(component)
            outgoing = adjacency[head]
            if nodes is None and len(outgoing) < 2:
                # One node with at most one edge: no set to build.
                target = component_of(outgoing[0]) if outgoing else None
                inner = target == component  # a self-loop
                row = NO_EDGES if target is None or inner else [target]
            else:
                targets: set[int] = set()
                for node in nodes or (head,):
                    targets.update(map(component_of, adjacency[node]))
                # An edge inside the component: a self-loop when it has one node.
                inner = component in targets
                if inner:
                    targets.discard(component)
                inner = inner or nodes is not None
                row = sorted(targets) if targets else NO_EDGES
            succ.append(row)
            cyclic.append(inner)
            self._edge_count += len(row)
            self._cyclic_count += inner

    # -- derived on read ------------------------------------------------
    @property
    def members(self) -> list[list[int]]:
        """For each component, the data nodes inside it (derived once)."""
        if self._members is None:
            members: list = [None] * len(self.cyclic)  # every slot is filled below
            cycles = self.cycles
            for node, component in enumerate(self.scc_of):
                if component not in cycles:
                    members[component] = [node]
            for component, nodes in cycles.items():
                members[component] = nodes
            self._members = members
        return self._members

    @property
    def _pred(self) -> list[list[int]]:
        """For each component, its predecessors in ascending id order
        (derived once)."""
        if self._pred_rows is None:
            self._pred_rows = predecessor_rows(self._succ)
        return self._pred_rows

    # -- DAG view -------------------------------------------------------
    @property
    def num_components(self) -> int:
        return len(self.cyclic)

    @property
    def num_edges(self) -> int:
        return self._edge_count

    def successors(self, component: int) -> Sequence[int]:
        return self._succ[component]

    def predecessors(self, component: int) -> list[int]:
        return self._pred[component]

    def topological_order(self) -> list[int]:
        """Components in topological order (sources first).

        Tarjan numbers components in reverse topological order, so this is
        just the reversed id sequence — no extra traversal needed.
        """
        return list(range(len(self.cyclic) - 1, -1, -1))

    def is_trivial(self) -> bool:
        """True iff the input graph was already a DAG without self-loops."""
        return not self._cyclic_count


def predecessor_rows(succ: Sequence[Sequence[int]]) -> list[list[int]]:
    """The reverse of the adjacency ``succ``: per node, its sources in
    ascending order."""
    pred: list[list[int]] = [[] for _ in succ]
    for source, targets in enumerate(succ):
        for target in targets:
            pred[target].append(source)
    return pred


def _tarjan(
    adjacency: Sequence[Sequence[int]],
    scc_of: list[int],
    first_component: int,
    cycles: dict[int, list[int]],
) -> list[int]:
    """Iterative Tarjan SCC over the nodes ``scc_of`` does not cover yet.

    Extends ``scc_of`` in place, numbering components from
    ``first_component`` in reverse topological order (a component is
    numbered only after everything it reaches), and records the members of
    each multi-node component in ``cycles``.  Returns the root node of each
    new component, by id.  Nodes ``scc_of`` already covers count as
    visited and closed, which is exact when none of them reaches an
    uncovered node.
    """
    first, n = len(scc_of), len(adjacency)
    unvisited, closed = -1, n  # discovery indices lie strictly between
    index_of = [closed] * first + [unvisited] * (n - first)
    low_link = [0] * n
    scc_of.extend([unvisited] * (n - first))
    stack: list[int] = []
    heads: list[int] = []
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
                    number = first_component + len(heads)
                    heads.append(node)
                    member = stack.pop()
                    index_of[member] = closed
                    scc_of[member] = number
                    if member != node:
                        component = [member]
                        while member != node:
                            member = stack.pop()
                            index_of[member] = closed
                            scc_of[member] = number
                            component.append(member)
                        cycles[number] = component
                if path and low < low_link[path[-1]]:
                    low_link[path[-1]] = low
    return heads


class Dag:
    """A plain adjacency-list DAG with a fixed topological order.

    ``pred`` is derived from ``succ`` at its first read and kept; it is
    not part of the pickled state.
    """

    __slots__ = ("succ", "order", "_pred")

    def __init__(self, succ: Sequence[Sequence[int]], order: list[int]):
        self.succ = succ
        self.order = order  # sources first
        self._pred: list[list[int]] | None = None

    def __getstate__(self) -> tuple:
        return self.succ, self.order

    def __setstate__(self, state: tuple) -> None:
        self.succ, self.order = state
        self._pred = None

    @property
    def pred(self) -> list[list[int]]:
        """For each node, its predecessors in ascending id order."""
        if self._pred is None:
            self._pred = predecessor_rows(self.succ)
        return self._pred

    @property
    def num_nodes(self) -> int:
        return len(self.succ)

    @property
    def num_edges(self) -> int:
        return sum(len(targets) for targets in self.succ)

    @classmethod
    def from_condensation(cls, condensation: Condensation) -> "Dag":
        """The condensation's own adjacency lists, viewed as a DAG."""
        return cls(condensation._succ, condensation.topological_order())

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
        return cls([list(graph.successors(node)) for node in graph.nodes()], order)


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
