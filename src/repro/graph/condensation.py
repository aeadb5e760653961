"""Strongly connected components, DAG condensation, structural snapshots.

The paper's AD relationship means "nonempty path", so on cyclic graphs every
node of a non-trivial SCC is a descendant of every other (and of itself).
All reachability indexes in :mod:`repro.reachability` are built on the
condensation DAG.  This module computes it acyclic-first: one iterative
postorder DFS numbers the nodes and builds the successor rows together,
and only a graph with a cycle is handed, at its first back edge, to an
iterative Tarjan SCC.  Neither recurses, so deep graphs do not hit
Python's recursion limit.

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
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from .digraph import DataGraph

#: The adjacency row of every node or component without edges in that
#: direction: one shared empty tuple instead of a list each.
NO_EDGES: tuple[int, ...] = ()

#: ``scc_of`` marks of a node not numbered yet (component ids are >= 0).
_UNVISITED, _ON_PATH = -1, -2


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
        ones, so a from-scratch condensation would walk the old part first
        and number it exactly as here; condensing the new nodes alone
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
        """Condense the nodes of ``adjacency`` this object does not cover yet:
        acyclic-first (:meth:`_postorder`), with a hand-off to
        :meth:`_tarjan` at the first back edge."""
        known = len(self._succ)
        handoff = self._postorder(adjacency)
        # Every component the postorder walk numbered is one acyclic node.
        self.cyclic.extend([False] * (len(self._succ) - known))
        self._edge_count += sum(map(len, self._succ[known:]))
        if handoff is not None:
            self._tarjan(adjacency, handoff)

    def _postorder(self, adjacency: Sequence[Sequence[int]]) -> int | None:
        """Number the uncovered nodes as one-node components in DFS postorder.

        Starts go in id order and successors in adjacency order, Tarjan's
        visit order.  A node closes after all its successors, so its
        component and its successor row are made in one step; on a DAG
        this is Tarjan's numbering, id for id, without its bookkeeping.
        At the first back edge (a self-loop is one) the nodes on the path
        are reset to unvisited and the start of that DFS is returned for
        :meth:`_tarjan` to continue from: every node closed so far reaches
        only closed nodes, so Tarjan would have numbered it alike.
        """
        scc_of, succ = self.scc_of, self._succ
        component_of = scc_of.__getitem__
        # A target repeats only through an old multi-node component.
        merge = (lambda targets: sorted(set(targets))) if self.cycles else sorted
        first, n = len(scc_of), len(adjacency)
        scc_of.extend([_UNVISITED] * (n - first))
        number = len(succ)
        for start in range(first, n):
            if scc_of[start] != _UNVISITED:
                continue
            scc_of[start] = _ON_PATH
            # The DFS path and, per node on it, the successors not yet tried.
            path = [start]
            pending = [iter(adjacency[start])]
            while path:
                for successor in pending[-1]:
                    seen = scc_of[successor]
                    if seen == _UNVISITED:
                        scc_of[successor] = _ON_PATH
                        path.append(successor)
                        pending.append(iter(adjacency[successor]))
                        break
                    if seen == _ON_PATH:
                        for node in path:
                            scc_of[node] = _UNVISITED
                        return start
                else:
                    node = path.pop()
                    pending.pop()
                    scc_of[node] = number
                    number += 1
                    outgoing = adjacency[node]
                    if not outgoing:
                        row = NO_EDGES
                    elif len(outgoing) == 1:
                        row = [scc_of[outgoing[0]]]
                    else:
                        row = merge(map(component_of, outgoing))
                    succ.append(row)
        return None

    def _tarjan(self, adjacency: Sequence[Sequence[int]], first: int) -> None:
        """Iterative Tarjan SCC over the nodes from ``first`` on that
        ``scc_of`` marks unvisited, numbering each component — and building
        its successor row — when it closes.  Nodes already numbered count
        as closed, which is exact when none of them reaches an unvisited
        node.  Multi-node components record their members in ``cycles``, in
        the order they were popped."""
        scc_of, cycles, cyclic, succ = self.scc_of, self.cycles, self.cyclic, self._succ
        n = len(adjacency)
        unvisited, closed = -1, n  # discovery indices lie strictly between
        index_of = [unvisited if seen == _UNVISITED else closed for seen in scc_of]
        low_link = [0] * n
        stack: list[int] = []
        next_index = 0

        for start in range(first, n):
            if index_of[start] != unvisited:
                continue
            index_of[start] = low_link[start] = next_index
            next_index += 1
            stack.append(start)
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
                        number = len(succ)
                        nodes = [stack.pop()]
                        while nodes[-1] != node:
                            nodes.append(stack.pop())
                        for member in nodes:
                            index_of[member] = closed
                            scc_of[member] = number
                        targets = {scc_of[edge] for member in nodes for edge in adjacency[member]}
                        # An edge inside the component: a self-loop when it has one node.
                        inner = number in targets or len(nodes) > 1
                        targets.discard(number)
                        if len(nodes) > 1:
                            cycles[number] = nodes
                        row = sorted(targets) if targets else NO_EDGES
                        succ.append(row)
                        cyclic.append(inner)
                        self._edge_count += len(row)
                        self._cyclic_count += inner
                    if path and low < low_link[path[-1]]:
                        low_link[path[-1]] = low

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

    def topological_order(self) -> range:
        """Components in topological order (sources first).

        Components are numbered in reverse topological order, so this is
        just the reversed id range — no traversal, no list.
        """
        return range(len(self.cyclic) - 1, -1, -1)

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


class Dag:
    """A plain adjacency-list DAG with a fixed topological order.

    ``pred`` is derived from ``succ`` at its first read and kept; it is
    not part of the pickled state.
    """

    __slots__ = ("succ", "order", "_pred")

    def __init__(self, succ: Sequence[Sequence[int]], order: Sequence[int]):
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
            descendant row) stays exact.
    """

    __slots__ = ("condensation", "dag", "version", "lineage")

    def __init__(self, condensation: Condensation, version: int, lineage: object = None):
        self.condensation = condensation
        self.dag = Dag.from_condensation(condensation)
        self.version = version
        self.lineage = object() if lineage is None else lineage

    def extended(self, graph: DataGraph) -> "GraphStructure":
        """The snapshot of ``graph`` — this one plus an append-only delta
        (:meth:`Condensation.extended`) — on the same lineage."""
        return GraphStructure(self.condensation.extended(graph), graph.version, self.lineage)


def condense(graph: DataGraph) -> Condensation:
    """The condensation of ``graph`` (its shared structural snapshot's)."""
    return graph.structure().condensation
