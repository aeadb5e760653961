"""Strongly connected components and the condensation DAG, numbered on demand.

The paper's AD relationship means "nonempty path", so on cyclic graphs every
node of a non-trivial SCC is a descendant of every other (and of itself).
All reachability indexes in :mod:`repro.reachability` are built on the
condensation DAG.  This module computes it acyclic-first: one iterative
postorder DFS numbers the nodes and builds the successor rows together,
and only a walk that meets a cycle is handed, at its first back edge, to
an iterative Tarjan SCC.  Neither recurses, so deep graphs do not hit
Python's recursion limit.

**Numbering on demand.**  A graph *lineage* has exactly one
:class:`Condensation`, and it numbers a node only when something asks
for its component (:meth:`Condensation.cover`), together with the
node's not yet numbered descendant cone.  Postorder from any start set
is reverse topological, and a numbered node's cone is already numbered,
so a later walk only points *at* numbered nodes: ids, successor rows and
``cyclic`` flags never change once given.  Full index builds, acyclicity
and depth complete the numbering (:meth:`GraphStructure.complete`); a
query answered through the lazily filled closure numbers only the cones
it reads.  Completed from nothing, the numbering equals the
whole-graph condensation id for id.

**The lineage rule.**  An edge out of a *numbered* node breaks the
lineage: the graph starts a new numbering, and the old one refuses to
number more nodes (:class:`StaleLineageError`) rather than read the
changed adjacency.  Any other mutation — new nodes, edges out of
nodes not numbered yet, attribute writes — keeps it, and a version's
:class:`GraphStructure` is a view of the one growing numbering, so an
append copies nothing.

A numbering allocates per cycle and per edge, not per node: a one-node
component has no member list and a component without successors shares
one empty tuple.  Member lists and predecessor lists are derived on
first read.  Every list is a container the cyclic garbage collector
walks, and on tree-shaped graphs nearly every component is a single
node and most are leaves.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Collection, Sequence

if TYPE_CHECKING:
    from .digraph import DataGraph

#: The adjacency row of every node or component without edges in that
#: direction: one shared empty tuple instead of a list each.
NO_EDGES: tuple[int, ...] = ()

#: ``scc_of`` marks of a node not numbered yet (component ids are >= 0).
_UNVISITED, _ON_PATH = -1, -2


class StaleLineageError(RuntimeError):
    """A numbering was asked for a node after its lineage broke: an edge
    out of a numbered node changed the adjacency it would have to read."""


class Condensation:
    """The condensation DAG of one graph lineage, numbered on demand.

    Numbering is serialized by a lock; a reader needs none, because a
    component's row and flag are stored before its nodes' ids are.

    Attributes:
        scc_of: for each data node, the id of its component, or ``-1``
            while it is not numbered (the list may be shorter than the
            graph: a new node is marked when a walk first needs it).
            Ids are *reverse topological* — if component ``a`` reaches
            ``b`` then ``a > b`` — and never change once given.
        cycles: the members of each multi-node component, by component
            id, in the order Tarjan popped them.
        cyclic: for each component, True iff it contains a cycle (size > 1
            or a self-loop) — exactly when its nodes are their own
            descendants under nonempty-path semantics.
        covered: data nodes numbered.
        covers: calls that numbered something.
        broken: set by the graph when an edge leaves a numbered node.
    """

    #: The state: what is derived on read, and the lock, are not part of it.
    _STORED = (
        "scc_of",
        "cycles",
        "cyclic",
        "covered",
        "covers",
        "broken",
        "_succ",
        "_adjacency",
        "_edge_count",
        "_cyclic_count",
    )
    __slots__ = (*_STORED, "_members", "_pred_rows", "_lock")

    def __init__(self, graph: DataGraph):
        """An empty numbering of ``graph``'s lineage: nothing is walked
        until :meth:`cover` or :meth:`complete` asks."""
        self.scc_of: list[int] = []
        self.cycles: dict[int, list[int]] = {}
        self.cyclic: list[bool] = []
        self._succ: list[Sequence[int]] = []
        self._adjacency = graph._succ  # the live rows: appends grow them
        self.covered = self.covers = self._edge_count = self._cyclic_count = 0
        self.broken = False
        self._members = self._pred_rows = None
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in self._STORED}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._members = self._pred_rows = None
        self._lock = threading.Lock()

    def cover(self, nodes: Collection[int]) -> None:
        """Number every node of ``nodes`` not numbered yet, with its cone.

        Raises :class:`StaleLineageError` when that is needed after the
        lineage broke (an IndexError for a node the graph does not have).
        """
        with self._lock:
            scc_of, adjacency = self.scc_of, self._adjacency
            if len(scc_of) < len(adjacency):
                scc_of.extend([_UNVISITED] * (len(adjacency) - len(scc_of)))
            starts = [node for node in nodes if scc_of[node] < 0]
            if not starts:
                return
            if self.broken:
                raise StaleLineageError(
                    "the graph gained an edge out of a numbered node; "
                    "this structure describes an older version"
                )
            self.covers += 1
            known = len(self._succ)
            handoff = self._postorder(starts)
            self.covered += len(self._succ) - known
            self._edge_count += sum(map(len, self._succ[known:]))
            if handoff is not None:
                self._tarjan(starts[handoff:])

    def complete(self) -> "Condensation":
        """Number every node the graph has; returns ``self``."""
        if self.covered < len(self._adjacency):
            self.cover(range(len(self._adjacency)))
        return self

    def _postorder(self, starts: list[int]) -> int | None:
        """Number the cones of ``starts`` as one-node components in DFS
        postorder.

        Starts go in the given order and successors in adjacency order,
        Tarjan's visit order.  A node closes after all its successors, so
        its component and its successor row are made in one step; on a
        DAG this is Tarjan's numbering, id for id, without its
        bookkeeping.  At the first back edge (a self-loop is one) the
        nodes on the path are reset to unvisited and the position of that
        DFS's start is returned for :meth:`_tarjan` to continue from:
        every node closed so far reaches only closed nodes, so Tarjan
        would have numbered it alike.
        """
        scc_of, succ, cyclic, adjacency = self.scc_of, self._succ, self.cyclic, self._adjacency
        component_of = scc_of.__getitem__
        # A target repeats only through a multi-node component.
        merge = (lambda targets: sorted(set(targets))) if self.cycles else sorted
        number = len(succ)
        for position, start in enumerate(starts):
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
                        return position
                else:
                    node = path.pop()
                    pending.pop()
                    outgoing = adjacency[node]
                    if not outgoing:
                        row = NO_EDGES
                    elif len(outgoing) == 1:
                        row = [scc_of[outgoing[0]]]
                    else:
                        row = merge(map(component_of, outgoing))
                    succ.append(row)
                    cyclic.append(False)
                    scc_of[node] = number  # published last
                    number += 1
        return None

    def _tarjan(self, starts: list[int]) -> None:
        """Iterative Tarjan SCC over the unnumbered cones of ``starts``,
        numbering each component — and building its successor row — when
        it closes.  Numbered nodes count as closed, which is exact because
        none of them reaches an unnumbered node; discovery indices and low
        links are kept for the nodes of this walk only.  Multi-node
        components record their members in ``cycles``, in the order they
        were popped."""
        scc_of, cycles, cyclic = self.scc_of, self.cycles, self.cyclic
        succ, adjacency = self._succ, self._adjacency
        index_of: dict[int, int] = {}
        low_link: dict[int, int] = {}
        stack: list[int] = []
        next_index = 0

        for start in starts:
            if scc_of[start] >= 0:
                continue
            index_of[start] = low_link[start] = next_index
            next_index += 1
            stack.append(start)
            path = [start]
            pending = [iter(adjacency[start])]
            while path:
                node = path[-1]
                for successor in pending[-1]:
                    if scc_of[successor] >= 0:
                        continue  # closed: its index exceeds any low link
                    seen = index_of.get(successor)
                    if seen is None:
                        index_of[successor] = low_link[successor] = next_index
                        next_index += 1
                        stack.append(successor)
                        path.append(successor)
                        pending.append(iter(adjacency[successor]))
                        break
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
                        # Every edge leaves for a closed component or
                        # stays inside, at a member not numbered yet.
                        targets = {scc_of[edge] for member in nodes for edge in adjacency[member]}
                        inner = _UNVISITED in targets or len(nodes) > 1
                        targets.discard(_UNVISITED)
                        if len(nodes) > 1:
                            cycles[number] = nodes
                        row = sorted(targets) if targets else NO_EDGES
                        succ.append(row)
                        cyclic.append(inner)
                        self._edge_count += len(row)
                        self._cyclic_count += inner
                        self.covered += len(nodes)
                        for member in nodes:  # published last
                            scc_of[member] = number
                    if path and low < low_link[path[-1]]:
                        low_link[path[-1]] = low

    # -- derived on read: these complete the numbering ------------------
    @property
    def members(self) -> list[list[int]]:
        """For each component, the data nodes inside it."""
        self.complete()
        if self._members is None or len(self._members) != len(self.cyclic):
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
        """For each component, its predecessors in ascending id order."""
        self.complete()
        if self._pred_rows is None or len(self._pred_rows) != len(self._succ):
            self._pred_rows = predecessor_rows(self._succ)
        return self._pred_rows

    # -- DAG view of the components numbered so far ---------------------
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
        """True iff no component numbered so far has a cycle — once
        complete, iff the graph is a DAG without self-loops."""
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
        """The condensation's own adjacency lists, viewed as a DAG of the
        components numbered so far (:meth:`GraphStructure.dag` completes
        the numbering first)."""
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
    """One graph version's view of its lineage's numbering.

    A view copies nothing: every view along a lineage shares its one
    :class:`Condensation`, which only grows.

    Attributes:
        condensation: the lineage's numbering; it is also the lineage
            token (:attr:`lineage`).  Along a lineage a numbered component
            keeps its id and successor row and cannot reach a component
            numbered later, so what is derived per component from its
            successors alone (a descendant row) stays exact.
        version: the :attr:`DataGraph.version` the view describes.
        num_nodes: that version's node count, which bounds
            :meth:`complete`.
    """

    __slots__ = ("condensation", "version", "num_nodes")

    def __init__(self, condensation: Condensation, version: int, num_nodes: int):
        self.condensation = condensation
        self.version = version
        self.num_nodes = num_nodes

    @property
    def lineage(self) -> Condensation:
        return self.condensation

    def complete(self) -> Condensation:
        """Number every node of this version; returns the condensation."""
        condensation = self.condensation
        if condensation.covered < len(condensation._adjacency):
            condensation.cover(range(self.num_nodes))
        return condensation

    @property
    def dag(self) -> Dag:
        """The version's condensation DAG, completed first — what every
        full index is built over."""
        return Dag.from_condensation(self.complete())


def condense(graph: DataGraph) -> Condensation:
    """The condensation of ``graph``, complete (its lineage's numbering)."""
    return graph.structure().complete()
