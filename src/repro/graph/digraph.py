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
    :meth:`nodes_with_label` and the structural snapshot behind
    :meth:`structure`.  Once built they follow the graph: :meth:`add_node`
    appends to the postings, :meth:`set_attr` moves a node between them,
    and an append-only delta extends the snapshot.  Neither is
    synchronised: threads that demand one at the same moment may each
    derive an equal copy, and mutating a graph while another thread
    queries it is not supported.
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
        "_structure_nodes",
        "_append_only",
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
        #: nodes the snapshot covers, and whether every edge added since
        #: leaves a node it does not cover (an *append-only* delta).
        self._structure_nodes = 0
        self._append_only = True
        self._structure_counts = dict.fromkeys(
            ("builds", "extensions", "hits", "label_builds"), 0
        )

    @property
    def version(self) -> int:
        """Monotonic mutation counter.

        Incremented by every :meth:`add_node` / :meth:`add_edge` /
        :meth:`set_attr`, so derived structures (reachability indexes, the
        session caches of :mod:`repro.engine.session`) can detect
        staleness cheaply.  Direct mutation of an attribute dictionary
        obtained from :meth:`attrs` is *not* tracked.

        A version bump does no structural work: the :meth:`structure`
        snapshot goes stale and is brought up to date at its next demand —
        extended when everything added since is append-only, rebuilt
        otherwise.
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
        if source < self._structure_nodes:
            self._append_only = False
        return True

    def set_attr(self, node: int, key: str, value: Any) -> None:
        """Set attribute ``key`` of ``node`` to ``value`` — the write the
        graph can see.

        Bumps :attr:`version`, so sessions drop their versioned caches,
        and a ``"label"`` write moves the node between label postings
        (a tuple handed out earlier is never modified; a ``None`` label
        is no label).  The structure did not change: the snapshot's
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

    def attrs(self, node: int) -> dict[str, Any]:
        """The attribute dictionary ``f(v)`` of ``node`` — the live dict,
        for reading.  Write through :meth:`set_attr`: a write to this
        dict is invisible to :attr:`version` and leaves the label
        postings, which are appended to and never rebuilt, wrong for the
        life of the graph."""
        self._check(node)
        return self._attrs[node]

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

    def parents_of(self, nodes: Collection[int]) -> set[int]:
        """The merged parent set of ``nodes``: every node with an edge into one.

        The bulk form of :meth:`predecessors` for the pruning passes
        (``P_{u'}`` of the paper's Section 4.4): the ids are bounds-checked
        once, on their extremes, instead of once per node.
        """
        if not nodes:
            return set()
        self._check(min(nodes))
        self._check(max(nodes))
        pred = self._pred
        return {parent for node in nodes for parent in pred[node]}

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
    # Structural snapshot
    # ------------------------------------------------------------------
    def structure(self) -> GraphStructure:
        """The condensation and condensation DAG of the current version.

        The one structural snapshot every consumer shares — graph
        statistics, full and partial reachability builds — computed on
        first demand, never at construction or inside a mutation.  A stale
        snapshot is *extended* when the delta since it is append-only
        (every new edge leaves a node the snapshot does not cover): old
        nodes then cannot reach new ones, so condensing the new nodes alone
        continues the old numbering and the result equals a from-scratch
        build id for id (:meth:`Condensation.extended`).  Any other delta
        rebuilds.  Snapshots are never modified once handed out, so one
        held across a mutation keeps describing its own version.
        """
        snapshot = self._structure
        if snapshot is not None and snapshot.version == self._version:
            self._structure_counts["hits"] += 1
            return snapshot
        if snapshot is not None and self._append_only:
            self._structure_counts["extensions"] += 1
            return self._install(snapshot.extended(self))
        self._structure_counts["builds"] += 1
        return self._install(GraphStructure(Condensation(self), self._version))

    def _install(self, snapshot: GraphStructure) -> GraphStructure:
        # Published first: a concurrent reader sees the old snapshot with
        # its own bookkeeping or the new one, never a mix.
        self._structure = snapshot
        self._structure_nodes = len(self._attrs)
        self._append_only = True
        return snapshot

    def structure_info(self) -> dict[str, int | None]:
        """Counters of :meth:`structure` — ``builds`` (from scratch),
        ``extensions`` (append-only deltas absorbed), ``hits``, and the
        ``version`` the held snapshot describes (None before the first
        demand) — and of the other whole-graph pass an append spares:
        ``label_builds`` (the label postings)."""
        snapshot = self._structure
        return {**self._structure_counts, "version": snapshot.version if snapshot else None}

    def distinct_labels(self) -> set[Any]:
        """The set of distinct ``"label"`` values present in the graph."""
        return set(self._postings())

    @property
    def num_labels(self) -> int:
        """``len(distinct_labels())``, read off the label postings."""
        return len(self._postings())

    def __repr__(self) -> str:
        return f"DataGraph(nodes={self.num_nodes}, edges={self.num_edges})"
