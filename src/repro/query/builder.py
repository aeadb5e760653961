"""Fluent construction of GTPQs.

Example — the paper's Fig. 2(b) query::

    query = (
        QueryBuilder()
        .backbone("u1", paper_label="A1")
        .backbone("u2", parent="u1", paper_label="C1")
        .backbone("u3", parent="u1", paper_label="C1")
        .backbone("u4", parent="u3", paper_label="D1")
        .predicate("u5", parent="u2", paper_label="E2")
        .predicate("u6", parent="u3", paper_label="G1")
        .predicate("u7", parent="u3", paper_label="B1")
        .predicate("u8", parent="u3", paper_label="D1")
        .predicate("u9", parent="u7", paper_label="E1")
        .predicate("u10", parent="u7", paper_label="E1")
        .structural("u2", "u5")
        .structural("u3", "!u6 | (u7 & u8)")
        .structural("u7", "u9 | u10")
        .outputs("u2", "u4")
        .build()
    )

All edges default to ancestor–descendant; pass ``edge="pc"`` (or ``"/"``)
for parent–child.
"""

from __future__ import annotations

from typing import Any

from ..logic import Formula, Var, land, parse_formula
from .attribute import AttributePredicate
from .gtpq import GTPQ, EdgeType, QueryNode, QueryValidationError


class QueryBuilder:
    """Incremental GTPQ construction with validation on :meth:`build`."""

    def __init__(self):
        self._nodes: dict[str, QueryNode] = {}
        self._root: str | None = None
        self._parent: dict[str, str] = {}
        self._children: dict[str, list[str]] = {}
        self._edge_types: dict[str, EdgeType] = {}
        self._structural: dict[str, Formula] = {}
        self._outputs: list[str] = []

    # ------------------------------------------------------------------
    def _add(
        self,
        node_id: str,
        parent: str | None,
        edge: EdgeType | str,
        predicate: AttributePredicate | None,
        label: Any,
        paper_label: str | None,
        is_backbone: bool,
    ) -> "QueryBuilder":
        if predicate is None:
            if paper_label is not None:
                predicate = AttributePredicate.tag_rank(paper_label)
            elif label is not None:
                predicate = AttributePredicate.label(label)
            else:
                predicate = AttributePredicate.wildcard()
        self._root = add_node(
            self._nodes,
            self._parent,
            self._children,
            self._edge_types,
            self._root,
            QueryNode(node_id, predicate, is_backbone),
            parent,
            edge,
        )
        return self

    def backbone(
        self,
        node_id: str,
        *,
        parent: str | None = None,
        edge: EdgeType | str = EdgeType.DESCENDANT,
        predicate: AttributePredicate | None = None,
        label: Any = None,
        paper_label: str | None = None,
    ) -> "QueryBuilder":
        """Add a backbone node.  The first node added becomes the root."""
        return self._add(node_id, parent, edge, predicate, label, paper_label, True)

    def predicate(
        self,
        node_id: str,
        *,
        parent: str | None = None,
        edge: EdgeType | str = EdgeType.DESCENDANT,
        predicate: AttributePredicate | None = None,
        label: Any = None,
        paper_label: str | None = None,
    ) -> "QueryBuilder":
        """Add a predicate (filter) node."""
        return self._add(node_id, parent, edge, predicate, label, paper_label, False)

    def structural(self, node_id: str, formula: Formula | str) -> "QueryBuilder":
        """Set ``fs(node_id)``; strings are parsed with the formula parser."""
        if node_id not in self._nodes:
            raise QueryValidationError(f"unknown node {node_id!r}")
        if isinstance(formula, str):
            formula = parse_formula(formula)
        self._structural[node_id] = formula
        return self

    def outputs(self, *node_ids: str) -> "QueryBuilder":
        """Declare the output nodes (result-tuple column order)."""
        self._outputs = list(node_ids)
        return self

    def build(self) -> GTPQ:
        """Validate and produce the immutable :class:`GTPQ`.

        When no structural predicate was given for a node with predicate
        children, those children are conjoined (the conventional TPQ
        reading).  When no outputs were declared, all backbone nodes are
        outputs (the "traditional TPQ" mode of the paper's Section 5).
        """
        return assemble(
            self._root,
            dict(self._nodes),
            dict(self._parent),
            {node_id: list(child_ids) for node_id, child_ids in self._children.items()},
            dict(self._edge_types),
            dict(self._structural),
            self._outputs,
        )


def add_node(
    nodes: dict[str, QueryNode],
    parent: dict[str, str],
    children: dict[str, list[str]],
    edge_types: dict[str, EdgeType],
    root: str | None,
    node: QueryNode,
    parent_id: str | None,
    edge: EdgeType | str,
) -> str | None:
    """Add ``node`` under ``parent_id`` (the root when ``None``) to
    these components and return the root.  Every node enters here, from
    :class:`QueryBuilder` and from :func:`~repro.query.query_from_dict`:
    a predicate node needs a parent, ids are unique, there is one root,
    and a parent is added before its children — not with them, so the
    components always form a tree (:meth:`GTPQ.of_tree`).  A node that
    breaks a rule raises and leaves the components as they were."""
    node_id = node.id
    if parent_id is None and not node.is_backbone:
        raise QueryValidationError("a predicate node cannot be the root")
    if node_id in nodes:
        raise QueryValidationError(f"duplicate query node id {node_id!r}")
    if parent_id is None:
        if root is not None:
            raise QueryValidationError(f"second root {node_id!r}; pass parent= for non-root nodes")
        nodes[node_id] = node
        children[node_id] = []
        return node_id
    if parent_id not in nodes:
        raise QueryValidationError(f"parent {parent_id!r} of {node_id!r} not yet added")
    edge_type = EdgeType.parse(edge)
    nodes[node_id] = node
    children[node_id] = []
    parent[node_id] = parent_id
    children[parent_id].append(node_id)
    edge_types[node_id] = edge_type
    return root


def assemble(
    root: str | None,
    nodes: dict[str, QueryNode],
    parent: dict[str, str],
    children: dict[str, list[str]],
    edge_types: dict[str, EdgeType],
    structural: dict[str, Formula],
    outputs: list[str],
) -> GTPQ:
    """The :class:`GTPQ` of components :func:`add_node` built (taken,
    not copied), with the defaults of :meth:`QueryBuilder.build`: a node
    with predicate children and no ``fs`` conjoins them, and no outputs
    means every backbone node.  ``structural`` gains the defaulted
    formulas."""
    if root is None:
        raise QueryValidationError("query has no nodes")
    for node_id, child_ids in children.items():
        if not child_ids or node_id in structural:
            continue
        predicate_children = [child_id for child_id in child_ids if not nodes[child_id].is_backbone]
        if predicate_children:
            structural[node_id] = land(*map(Var, predicate_children))
    return GTPQ.of_tree(
        root=root,
        nodes=nodes,
        parent=parent,
        children=children,
        edge_types=edge_types,
        structural=structural,
        outputs=outputs or [node_id for node_id, node in nodes.items() if node.is_backbone],
    )
