"""Attributed directed data graphs (paper Section 2).

A data graph is ``G = (V, E, f)`` where ``f`` maps each node to a tuple of
attribute/value pairs.  Nodes are dense integer ids ``0..n-1`` so that the
index structures (chains, intervals, bitsets) can use flat arrays.

The paper's examples attach a single *label* (``a1``, ``c2`` …) standing for
the whole attribute tuple; :meth:`DataGraph.add_node` accepts arbitrary
attribute dictionaries and the common case of a bare label is stored under
the attribute name ``"label"``.
"""

from __future__ import annotations

from itertools import chain
from types import MappingProxyType
from typing import Any, Collection, Iterable, Iterator, Mapping, Sequence

from .condensation import NO_EDGES, Condensation, GraphStructure


class DataGraph:
    """A directed graph whose nodes carry attribute dictionaries.

    Edges are stored as forward and reverse adjacency lists, and a node
    gets each list at its first edge in that direction: until then the
    slot holds one shared empty tuple, so a leaf has no successor list and
    a root no predecessor list (most nodes of a tree-shaped graph are one
    or the other, and every list is a container the cyclic garbage
    collector walks).  Parallel edges are collapsed (the semantics of
    PC/AD relationships only care about edge existence) and self-loops are
    permitted (they make a node its own descendant under the paper's
    nonempty-path AD semantics).

    The graph owns two lazily derived caches: the label postings behind
    :meth:`nodes_with_label` and the component numbering behind
    :meth:`structure`.  Once built they follow the graph: :meth:`add_node`
    appends to the postings, :meth:`set_attr` moves a node between them,
    and the numbering grows as it is asked for, until an edge leaves a
    node it has numbered.  Numbering is serialized by a lock, so threads
    may query one graph together; the postings are not synchronised
    (threads that demand them at the same moment may each derive an
    equal copy), and mutating a graph while another thread queries it
    is not supported.
    """

    __slots__ = (
        "_attrs",
        "_succ",
        "_pred",
        "_edge_count",
        "_root_count",
        "_label_index",
        "_version",
        "_structure",
        "_lineage",
        "_structure_counts",
    )

    def __init__(self):
        self._attrs: list[dict[str, Any]] = []
        self._succ: list[Sequence[int]] = []
        self._pred: list[Sequence[int]] = []
        self._edge_count = 0
        self._root_count = 0
        self._label_index: dict[Any, tuple[int, ...]] | None = None
        self._version = 0
        self._structure: GraphStructure | None = None
        #: the numbering of the current lineage (None before the first
        #: demand and after a break).
        self._lineage: Condensation | None = None
        self._structure_counts = dict.fromkeys(("builds", "extensions", "hits", "label_builds"), 0)

    @property
    def version(self) -> int:
        """Monotonic mutation counter.

        Incremented by every :meth:`add_node` / :meth:`add_edge` /
        :meth:`set_attr`, so derived structures (reachability indexes, the
        session caches of :mod:`repro.engine.session`) can detect
        staleness cheaply.

        A version bump does no structural work: the next :meth:`structure`
        demand hands out a view of the same growing numbering, or of a
        new one when an edge left a numbered node.
        """
        return self._version

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, attrs: Mapping[str, Any] | None = None, *, label: Any = None) -> int:
        """Add a node and return its id.

        Args:
            attrs: attribute dictionary (the paper's ``f(v)`` tuple).
            label: shorthand for ``attrs={"label": label}``; merged into
                ``attrs`` when both are given.
        """
        node_attrs: dict[str, Any] = dict(attrs) if attrs else {}
        if label is not None:
            node_attrs.setdefault("label", label)
        node = len(self._attrs)
        posting = None
        if self._label_index is not None:
            node_label = node_attrs.get("label")
            if node_label is not None:
                # Looked up before anything is appended: an unhashable
                # label raises here and leaves no half-added node.
                posting = self._label_index.get(node_label, ()) + (node,)
        self._attrs.append(node_attrs)
        self._succ.append(NO_EDGES)
        self._pred.append(NO_EDGES)
        self._root_count += 1
        self._version += 1
        if posting is not None:
            # A tuple handed out earlier is never modified; the dict
            # assignment publishes the longer one.
            self._label_index[node_label] = posting
        return node

    def add_edge(self, source: int, target: int) -> bool:
        """Add edge ``source -> target``; returns False if already present."""
        self._check(source)
        self._check(target)
        children = self._succ[source]
        if target in children:
            return False
        if children:
            children.append(target)
        else:
            self._succ[source] = [target]
        parents = self._pred[target]
        if parents:
            parents.append(source)
        else:
            self._pred[target] = [source]
            self._root_count -= 1
        self._edge_count += 1
        self._version += 1
        lineage = self._lineage
        if lineage is not None and source < len(lineage.scc_of) and lineage.scc_of[source] >= 0:
            # The edge changes a numbered cone: the numbering is retired.
            lineage.broken = True
            self._lineage = None
        return True

    def set_attr(self, node: int, key: str, value: Any) -> None:
        """Set attribute ``key`` of ``node`` to ``value`` — the write the
        graph can see.

        Bumps :attr:`version`, so sessions drop their versioned caches,
        and a ``"label"`` write moves the node between label postings
        (a tuple handed out earlier is never modified; a ``None`` label
        is no label).  The structure did not change: the numbering's
        lineage — and with it every descendant closure — is kept.
        """
        self._check(node)
        attrs = self._attrs[node]
        postings, old = self._label_index, attrs.get("label")
        if key == "label" and postings is not None and old != value:
            # Looked up before anything is written: an unhashable label
            # raises here and leaves the node as it was.
            grown = None if value is None else tuple(sorted((*postings.get(value, ()), node)))
            if old is not None:
                rest = tuple(member for member in postings[old] if member != node)
                if rest:
                    postings[old] = rest
                else:
                    del postings[old]
            if grown is not None:
                postings[value] = grown
        attrs[key] = value
        self._version += 1

    @classmethod
    def from_edges(
        cls,
        labels: Iterable[Any],
        edges: Iterable[tuple[int, int]],
    ) -> "DataGraph":
        """Build a graph from a label sequence and an edge list.

        Convenient for tests and for transcribing the paper's figures::

            g = DataGraph.from_edges("ab", [(0, 1)])
        """
        graph = cls()
        for label in labels:
            graph.add_node(label=label)
        for source, target in edges:
            graph.add_edge(source, target)
        return graph

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def _check(self, node: int) -> None:
        if not 0 <= node < len(self._attrs):
            raise IndexError(f"node {node} not in graph of size {len(self._attrs)}")

    @property
    def num_nodes(self) -> int:
        return len(self._attrs)

    @property
    def num_edges(self) -> int:
        return self._edge_count

    def nodes(self) -> range:
        """Iterate node ids."""
        return range(len(self._attrs))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate ``(source, target)`` pairs."""
        for source, targets in enumerate(self._succ):
            for target in targets:
                yield (source, target)

    def attrs(self, node: int) -> Mapping[str, Any]:
        """The attribute mapping ``f(v)`` of ``node``: a read-only view
        of the live dict (a write raises ``TypeError``).  Write through
        :meth:`set_attr`, which bumps :attr:`version` and keeps the label
        postings current."""
        self._check(node)
        return MappingProxyType(self._attrs[node])

    def label(self, node: int) -> Any:
        """The ``"label"`` attribute, or None when absent."""
        self._check(node)
        return self._attrs[node].get("label")

    def successors(self, node: int) -> Sequence[int]:
        """Children of ``node`` (PC relationship targets), in the order
        their edges were added: a read-only sequence; a shared empty tuple
        until the node's first edge."""
        self._check(node)
        return self._succ[node]

    def predecessors(self, node: int) -> Sequence[int]:
        """Parents of ``node``, in the order their edges were added: a
        read-only sequence; a shared empty tuple until the node's first
        edge."""
        self._check(node)
        return self._pred[node]

    def attrs_of(self, nodes: Collection[int]) -> Iterator[Mapping[str, Any]]:
        """The live attribute mappings of ``nodes``, in order.

        The bulk read of :meth:`attrs` for the candidate scan: one
        iterator over the stored dicts instead of one read-only view per
        node.  The mappings are for reading only — write through
        :meth:`set_attr`.  The ids are bounds-checked once, on their
        extremes.
        """
        if nodes:
            self._check(min(nodes))
            self._check(max(nodes))
        return map(self._attrs.__getitem__, nodes)

    def parents_of(self, nodes: Collection[int]) -> set[int]:
        """The merged parent set of ``nodes``: every node with an edge into one.

        The bulk form of :meth:`predecessors` for the pruning passes
        (``P_{u'}`` of the paper's Section 4.4): the ids are bounds-checked
        once, on their extremes, instead of once per node.
        """
        return self._merged(self._pred, nodes)

    def children_of(self, nodes: Collection[int]) -> set[int]:
        """The merged child set of ``nodes``: every node with an edge out
        of one — the bulk form of :meth:`successors`, checked like
        :meth:`parents_of`."""
        return self._merged(self._succ, nodes)

    def _merged(self, adjacency: list[Sequence[int]], nodes: Collection[int]) -> set[int]:
        if not nodes:
            return set()
        self._check(min(nodes))
        self._check(max(nodes))
        return set(chain.from_iterable(map(adjacency.__getitem__, nodes)))

    def out_degree(self, node: int) -> int:
        self._check(node)
        return len(self._succ[node])

    def in_degree(self, node: int) -> int:
        self._check(node)
        return len(self._pred[node])

    def has_edge(self, source: int, target: int) -> bool:
        self._check(source)
        self._check(target)
        return target in self._succ[source]

    def roots(self) -> list[int]:
        """Nodes without incoming edges."""
        return [node for node in self.nodes() if not self._pred[node]]

    @property
    def num_roots(self) -> int:
        """``len(roots())``, counted as nodes and edges arrive."""
        return self._root_count

    def leaves(self) -> list[int]:
        """Nodes without outgoing edges."""
        return [node for node in self.nodes() if not self._succ[node]]

    # ------------------------------------------------------------------
    # Candidate-matching support
    # ------------------------------------------------------------------
    def nodes_with_label(self, label: Any) -> tuple[int, ...]:
        """All nodes whose ``"label"`` attribute equals ``label``.

        Backed by a lazily built inverted index, mirroring how the paper's
        implementations stream ``mat(u)`` per query node without a full
        graph scan per query.  Returns the stored (immutable) posting
        tuple itself — repeated candidate scans share one object instead
        of copying the list per call.  The index is built once, at its
        first demand; :meth:`add_node` and :meth:`set_attr` keep it current
        from then on.
        """
        return self._postings().get(label, ())

    def _postings(self) -> dict[Any, tuple[int, ...]]:
        postings = self._label_index
        if postings is None:
            lists: dict[Any, list[int]] = {}
            for node, attrs in enumerate(self._attrs):
                node_label = attrs.get("label")
                if node_label is not None:
                    lists.setdefault(node_label, []).append(node)
            postings = {node_label: tuple(nodes) for node_label, nodes in lists.items()}
            self._label_index = postings
            self._structure_counts["label_builds"] += 1
        return postings

    # ------------------------------------------------------------------
    # Component numbering
    # ------------------------------------------------------------------
    def structure(self) -> GraphStructure:
        """The current version's view of the component numbering.

        The one numbering every consumer shares — graph statistics, full
        and partial reachability builds — grows on demand and is never
        made at construction or inside a mutation: handing out a view
        walks nothing (:mod:`repro.graph.condensation`).  Mutations keep
        it unless an edge leaves a node it has numbered; then the next
        demand starts a new lineage, and the old views refuse to number
        further (:class:`~repro.graph.condensation.StaleLineageError`).
        Numbered ids never change, so a view held across a mutation
        keeps answering for what it has numbered.
        """
        counts, view = self._structure_counts, self._structure
        if view is not None and view.version == self._version:
            counts["hits"] += 1
            return view
        lineage = self._lineage
        if lineage is None:
            counts["builds"] += 1
            lineage = self._lineage = Condensation(self)
        else:
            counts["extensions"] += 1
        view = self._structure = GraphStructure(lineage, self._version, len(self._attrs))
        return view

    def structure_info(self) -> dict[str, int | None]:
        """Counters of :meth:`structure` — ``builds`` (lineages started:
        the first demand, and the first after a break), ``extensions``
        (views handed out along a held lineage after a version bump),
        ``hits`` (the current view again), the current lineage's
        ``covered`` (nodes numbered) and ``covers`` (calls that numbered
        something), and the ``version`` the held view describes (None
        before the first demand) — and of the other whole-graph pass an
        append spares: ``label_builds`` (the label postings)."""
        lineage, view = self._lineage, self._structure
        return {
            **self._structure_counts,
            "covered": lineage.covered if lineage else 0,
            "covers": lineage.covers if lineage else 0,
            "version": view.version if view else None,
        }

    def distinct_labels(self) -> set[Any]:
        """The set of distinct ``"label"`` values present in the graph."""
        return set(self._postings())

    @property
    def num_labels(self) -> int:
        """``len(distinct_labels())``, read off the label postings."""
        return len(self._postings())

    def __repr__(self) -> str:
        return f"DataGraph(nodes={self.num_nodes}, edges={self.num_edges})"
