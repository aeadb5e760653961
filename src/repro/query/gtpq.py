"""The generalized tree pattern query (GTPQ) model — paper Section 2.

``Q = (Vb, Vp, Vo, Eq, fa, fe, fs)``:

* backbone nodes ``Vb`` and predicate nodes ``Vp`` form a rooted tree;
* each edge is parent–child (PC) or ancestor–descendant (AD);
* each node carries an attribute predicate ``fa``;
* each internal node carries a structural predicate ``fs`` — a
  propositional formula over variables named after its *predicate*
  children (backbone children are implicitly conjoined via ``fext``);
* output nodes ``Vo ⊆ Vb``.

Well-formedness (enforced by :meth:`GTPQ.validate`):

* the node/edge structure is a tree rooted at a backbone node;
* a backbone node's parent is backbone (paper constraint (3));
* ``fs(u)`` mentions only predicate children of ``u``;
* ``Vo`` is a nonempty subset of ``Vb``.

The restriction that negation/disjunction never applies to backbone
variables is structural here: backbone children are simply not legal
variables of ``fs``, which is exactly the paper's guarantee that every
backbone node has an image in every match.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Iterator

from ..logic import TRUE, And, Const, Formula, Not, Var
from .attribute import AttributePredicate, subsumer_rows
from .subtrees import Subtree, subtree_records


class EdgeType(Enum):
    """The two structural relationships of tree pattern queries."""

    CHILD = "pc"  #: parent-child: one data edge
    DESCENDANT = "ad"  #: ancestor-descendant: nonempty data path

    @classmethod
    def parse(cls, value: "EdgeType | str") -> "EdgeType":
        if isinstance(value, EdgeType):
            return value
        lowered = value.lower()
        if lowered in ("pc", "child", "/"):
            return cls.CHILD
        if lowered in ("ad", "descendant", "//"):
            return cls.DESCENDANT
        raise ValueError(f"unknown edge type {value!r}")


class QueryNode:
    """One node of a GTPQ."""

    __slots__ = ("id", "predicate", "is_backbone")

    def __init__(self, node_id: str, predicate: AttributePredicate, is_backbone: bool):
        self.id = node_id
        self.predicate = predicate
        self.is_backbone = is_backbone

    def __repr__(self) -> str:
        kind = "backbone" if self.is_backbone else "predicate"
        return f"QueryNode({self.id!r}, {kind})"


class QueryValidationError(ValueError):
    """Raised when a GTPQ violates the well-formedness rules."""


class GTPQ:
    """A generalized tree pattern query.

    Instances are built through :class:`repro.query.builder.QueryBuilder`
    (recommended) or directly from components.  After construction the
    structure is fixed; the analysis algorithms produce *new* queries
    rather than mutating existing ones.

    Because the structure is fixed, every fact derived from it — the
    subtree records (``fext`` and the fingerprints), the pre-order, the
    depth map, the class verdicts — is computed when first read and kept
    in ``_facts`` (:meth:`derived`), which is never pickled and which a
    :meth:`copy` starts empty, but for the :class:`PredicateRelation`: a
    copy keeps its nodes' predicates, so it inherits the relation instead
    of asking them again.  A query parsed from JSON starts with its
    records (:func:`~repro.query.serialize.query_from_dict`).
    """

    def __init__(
        self,
        root: str,
        nodes: dict[str, QueryNode],
        parent: dict[str, str],
        children: dict[str, list[str]],
        edge_types: dict[str, EdgeType],
        structural: dict[str, Formula],
        outputs: list[str],
    ):
        """Build a query from its components; :meth:`validate` runs at once.

        Args:
            root: id of the root node.
            nodes: all query nodes by id.
            parent: parent id of every non-root node.
            children: ordered child list per node (may be empty).
            edge_types: per non-root node, the type of its incoming edge.
            structural: ``fs`` per node; missing entries default to TRUE.
            outputs: ordered output node ids (result-tuple column order).
        """
        self.root = root
        self.nodes = nodes
        self.parent = parent
        self.children = {node_id: list(children.get(node_id, [])) for node_id in nodes}
        self.edge_types = edge_types
        self.structural = {node_id: structural.get(node_id, TRUE) for node_id in nodes}
        self.outputs = list(outputs)
        self.validate()
        self._facts: dict[str, object] = {}

    @classmethod
    def of_tree(
        cls,
        root: str,
        nodes: dict[str, QueryNode],
        parent: dict[str, str],
        children: dict[str, list[str]],
        edge_types: dict[str, EdgeType],
        structural: dict[str, Formula],
        outputs: list[str],
    ) -> "GTPQ":
        """The query of components :func:`~repro.query.builder.add_node`
        built, which are a tree rooted at ``root`` by construction: its
        dicts and child lists are taken as they are, and only the checks a
        tree does not settle run (:meth:`validate` without the walk)."""
        query = cls.__new__(cls)
        query.root = root
        query.nodes = nodes
        query.parent = parent
        query.children = children
        query.edge_types = edge_types
        query.structural = {node_id: structural.get(node_id, TRUE) for node_id in nodes}
        query.outputs = list(outputs)
        query._validate_nodes()
        query._facts = {}
        return query

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_facts": {}}

    def derived(self, name: str, compute):
        """``compute(self)``, evaluated once per query object and ``name``."""
        facts = self._facts
        if name not in facts:
            facts[name] = compute(self)
        return facts[name]

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`QueryValidationError` unless the query is
        well-formed, in time linear in the size of the query."""
        self._validate_tree()
        self._validate_nodes()

    def _validate_tree(self) -> None:
        root, nodes, parent = self.root, self.nodes, self.parent
        if root not in nodes:
            raise QueryValidationError(f"root {root!r} is not a query node")
        if not nodes[root].is_backbone:
            raise QueryValidationError("the root must be a backbone node")
        if root in parent:
            raise QueryValidationError("the root cannot have a parent")
        for node_id in nodes:
            if node_id != root and node_id not in parent:
                raise QueryValidationError(f"node {node_id!r} is disconnected")
        # Tree shape: walking parents from any node must end at the root.
        # A walk stops at the first node already known to reach it, so
        # every edge is walked once.
        reaches_root = {root}
        for node_id in nodes:
            walked = set()
            current = node_id
            while current not in reaches_root:
                walked.add(current)
                current = parent.get(current)
                if current is None or current not in nodes:
                    raise QueryValidationError(f"node {node_id!r} is not connected to the root")
                if current in walked:
                    raise QueryValidationError("query edges form a cycle")
            reaches_root |= walked
        for node_id, child_ids in self.children.items():
            for child_id in child_ids:
                if parent.get(child_id) != node_id:
                    raise QueryValidationError(
                        f"child list of {node_id!r} disagrees with parent map"
                    )
        for node_id in parent:
            if node_id not in self.edge_types:
                raise QueryValidationError(f"edge into {node_id!r} has no type")

    def _validate_nodes(self) -> None:
        root, nodes, parent = self.root, self.nodes, self.parent
        # Paper constraint (3): backbone nodes hang off backbone nodes.
        for node_id, node in nodes.items():
            if node_id != root and node.is_backbone and not nodes[parent[node_id]].is_backbone:
                raise QueryValidationError(f"backbone node {node_id!r} has a predicate parent")
        # fs(u) ranges over predicate children only.
        for node_id, formula in self.structural.items():
            if not formula.variables():
                continue
            allowed = {
                child_id for child_id in self.children[node_id] if not nodes[child_id].is_backbone
            }
            extra = formula.variables() - allowed
            if extra:
                raise QueryValidationError(
                    f"fs({node_id}) mentions non-predicate-children {sorted(extra)}"
                )
        if not self.outputs:
            raise QueryValidationError("a query must have at least one output node")
        for node_id in self.outputs:
            if node_id not in self.nodes:
                raise QueryValidationError(f"output {node_id!r} is not a query node")
            if not self.nodes[node_id].is_backbone:
                raise QueryValidationError(f"output node {node_id!r} must be a backbone node")

    # ------------------------------------------------------------------
    # Structure accessors
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """``|Q| = |Vq|`` (paper Section 3.3)."""
        return len(self.nodes)

    def backbone_nodes(self) -> list[str]:
        return [node_id for node_id, node in self.nodes.items() if node.is_backbone]

    def predicate_nodes(self) -> list[str]:
        return [node_id for node_id, node in self.nodes.items() if not node.is_backbone]

    def attribute(self, node_id: str) -> AttributePredicate:
        """``fa(u)``."""
        return self.nodes[node_id].predicate

    def fs(self, node_id: str) -> Formula:
        """``fs(u)``, the structural predicate over predicate children."""
        return self.structural[node_id]

    def relation(self) -> "PredicateRelation":
        """How the attribute predicates of the nodes relate; see
        :class:`PredicateRelation`."""
        return self.derived("relation", _relation)

    def records(self) -> dict[str, Subtree]:
        """The interned record of every rooted subtree, by root node,
        children before parents (:mod:`repro.query.subtrees`)."""
        return self.derived("records", subtree_records)

    def fext(self, node_id: str) -> Formula:
        """``fext(u)``: backbone-children conjunction AND ``fs(u)``."""
        return self.derived("records", subtree_records)[node_id].fext

    def edge_type(self, node_id: str) -> EdgeType:
        """Type of the edge *into* ``node_id`` (undefined for the root)."""
        return self.edge_types[node_id]

    def is_leaf(self, node_id: str) -> bool:
        return not self.children[node_id]

    def preorder(self) -> tuple[str, ...]:
        """Every node in pre-order, children in list order; walked once
        per query."""
        return self.derived("preorder", _preorder)

    def depth_first(self, start: str | None = None) -> Iterator[str]:
        """Pre-order traversal of (a subtree of) the query."""
        if start is None:
            return iter(self.derived("preorder", _preorder))
        return _walk(self.children, start)

    def bottom_up(self) -> tuple[str, ...]:
        """Nodes ordered leaves-first (children before parents): the
        pre-order reversed."""
        return self.derived("preorder", _preorder)[::-1]

    def subtree_nodes(self, node_id: str) -> list[str]:
        """All nodes of the subtree rooted at ``node_id`` (pre-order)."""
        return list(_walk(self.children, node_id))

    def ancestors(self, node_id: str) -> list[str]:
        """Proper ancestors from parent up to the root."""
        out = []
        current = node_id
        while current != self.root:
            current = self.parent[current]
            out.append(current)
        return out

    def path_to_root(self, node_id: str) -> list[str]:
        """``node_id`` plus its ancestors, ending at the root."""
        return [node_id] + self.ancestors(node_id)

    def depths(self) -> dict[str, int]:
        """Edges between each node and the root."""
        return self.derived("depths", _depths)

    # ------------------------------------------------------------------
    # Classification (paper Section 2)
    # ------------------------------------------------------------------
    def is_conjunctive(self) -> bool:
        """Structural predicates use conjunction only."""
        return self.derived("conjunctive", _is_conjunctive)

    def is_union_conjunctive(self) -> bool:
        """Structural predicates are negation-free."""
        return self.derived("union_conjunctive", _is_union_conjunctive)

    def has_pc_edges(self) -> bool:
        return any(edge is EdgeType.CHILD for edge in self.edge_types.values())

    # ------------------------------------------------------------------
    # Derivation helpers used by analysis/minimization
    # ------------------------------------------------------------------
    def copy(
        self,
        *,
        drop: Iterable[str] = (),
        structural_override: dict[str, Formula] | None = None,
        outputs_override: list[str] | None = None,
    ) -> "GTPQ":
        """A new query with ``drop`` subtrees removed and overrides applied.

        Dropping a node drops its whole subtree.  The caller is responsible
        for having already substituted the dropped variables out of the
        remaining structural predicates.  Node insertion order and sibling
        order are kept, so a copy's traversals visit the survivors in the
        order this query does.
        """
        dropped: set[str] = set()
        for node_id in drop:
            dropped.update(self.subtree_nodes(node_id))
        if self.root in dropped:
            raise QueryValidationError("cannot drop the root subtree")
        structural = dict(self.structural)
        if structural_override:
            structural.update(structural_override)
        outputs = outputs_override if outputs_override is not None else self.outputs
        nodes = {node_id: node for node_id, node in self.nodes.items() if node_id not in dropped}
        twin = GTPQ(
            root=self.root,
            nodes=nodes,
            parent={
                node_id: parent_id
                for node_id, parent_id in self.parent.items()
                if node_id not in dropped
            },
            children={
                node_id: [c for c in self.children[node_id] if c not in dropped]
                for node_id in nodes
            },
            edge_types={
                node_id: edge
                for node_id, edge in self.edge_types.items()
                if node_id not in dropped
            },
            structural={node_id: structural[node_id] for node_id in nodes},
            outputs=[node_id for node_id in outputs if node_id not in dropped],
        )
        relation = self._facts.get("relation")
        if relation is not None:
            twin._facts["relation"] = relation
        return twin

    def __repr__(self) -> str:
        return f"GTPQ(root={self.root!r}, nodes={len(self.nodes)}, outputs={self.outputs!r})"


class PredicateRelation:
    """How a query's attribute predicates relate: per node ``u``, whether
    ``fa(u)`` is satisfiable, and the nodes ``v`` with ``fa(v) ⊢ fa(u)``.

    These are the only two questions the decision procedures of Section 3
    (Theorems 1, 3 and 6) ask of an attribute predicate.  Each is asked
    once per node and per ordered pair, here — the pairs all at once, by
    :func:`~repro.query.attribute.subsumer_rows` on the first read of
    :attr:`subsumers`, so a caller that needs only the satisfiability
    bits stays linear.  The analysis reads predicates through this
    relation and nothing else, so what it decides is a function of the
    tree, the ``fs`` formulas and the relation.  Node ids key it, so it
    holds for every :meth:`GTPQ.copy` too.  A subsumer row is a bit mask
    over the nodes in insertion order (:attr:`bit`), not a container: a
    relation lives as long as the cached plan of its query, so it is three
    dicts of strings and integers whatever the query's size.
    """

    __slots__ = ("_nodes", "bit", "satisfiable", "_subsumers")

    def __init__(self, nodes: dict[str, QueryNode]):
        self._nodes = nodes
        #: node id → its bit in a :attr:`subsumers` row.
        self.bit = {node_id: 1 << position for position, node_id in enumerate(nodes)}
        #: node id → ``fa(u)`` satisfiable.
        self.satisfiable = {
            node_id: node.predicate.is_satisfiable() for node_id, node in nodes.items()
        }
        self._subsumers: dict[str, int] | None = None

    @property
    def subsumers(self) -> dict[str, int]:
        """Node id ``u`` → the bits of the ``v`` with ``fa(v) ⊢ fa(u)``."""
        if self._subsumers is None:
            predicates = [node.predicate for node in self._nodes.values()]
            self._subsumers = dict(zip(self._nodes, subsumer_rows(predicates)))
        return self._subsumers

    def subsumes(self, specific: str, general: str) -> bool:
        """``fa(specific) ⊢ fa(general)``."""
        return bool(self.subsumers[general] & self.bit[specific])


def _relation(query: GTPQ) -> PredicateRelation:
    return PredicateRelation(query.nodes)


def _walk(children: dict[str, list[str]], start: str) -> Iterator[str]:
    stack = [start]
    while stack:
        node_id = stack.pop()
        yield node_id
        stack.extend(reversed(children[node_id]))


def _preorder(query: GTPQ) -> tuple[str, ...]:
    return tuple(_walk(query.children, query.root))


def _depths(query: GTPQ) -> dict[str, int]:
    depths = {query.root: 0}
    for node_id in query.preorder():  # parents before children
        for child_id in query.children[node_id]:
            depths[child_id] = depths[node_id] + 1
    return depths


def _is_conjunctive(query: GTPQ) -> bool:
    return all(
        isinstance(g, (And, Const, Var))
        for formula in query.structural.values()
        for g in formula.walk()
    )


def _is_union_conjunctive(query: GTPQ) -> bool:
    return not any(
        isinstance(g, Not) for formula in query.structural.values() for g in formula.walk()
    )
