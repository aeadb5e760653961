"""GTPQ (de)serialization to plain dictionaries / JSON, plus fingerprints.

Workload files in :mod:`repro.datasets` and the examples use this format;
formulas round-trip through the text parser.

Fingerprints (:func:`query_fingerprint`, :func:`subtree_fingerprints`) are
stable content hashes used as cache keys by
:class:`repro.engine.session.QuerySession`:
two queries that serialize to the same canonical form — regardless of node
insertion order or a round trip through :func:`query_to_dict` /
:func:`query_from_dict` — share one fingerprint.  Output order is part of
the fingerprint (it determines result-tuple column order); sibling order
is not.
"""

from __future__ import annotations

import hashlib
import json
from json.encoder import encode_basestring_ascii
from typing import Any

from ..logic.formula import And, Const, Formula, Not, Or, Var
from ..logic.parser import shared_formula
from .attribute import AttributePredicate, shared_predicate
from .builder import add_node, assemble
from .gtpq import GTPQ, EdgeType, QueryNode


def query_to_dict(query: GTPQ) -> dict[str, Any]:
    """A JSON-safe description of ``query``."""
    nodes = []
    for node_id in query.depth_first():
        node = query.nodes[node_id]
        entry: dict[str, Any] = {
            "id": node_id,
            "kind": "backbone" if node.is_backbone else "predicate",
            "atoms": [list(atom) for atom in node.predicate.atoms],
        }
        if node_id != query.root:
            entry["parent"] = query.parent[node_id]
            entry["edge"] = query.edge_type(node_id).value
        fs = query.fs(node_id)
        if fs.variables() or fs.is_constant() and not fs.value:  # non-trivial
            entry["fs"] = str(fs)
        nodes.append(entry)
    return {"nodes": nodes, "outputs": list(query.outputs)}


def query_from_dict(data: dict[str, Any]) -> GTPQ:
    """Rebuild a query produced by :func:`query_to_dict`.

    Accepts what :class:`QueryBuilder` accepts, with its errors and
    defaults: nodes in parent-before-child order, ``kind`` defaulting
    to ``"backbone"`` and ``edge`` to ``"ad"``.  Predicates and ``fs``
    formulas come from :func:`shared_predicate` and
    :func:`shared_formula`, so a value met in an earlier live query is
    not built or analysed again.
    """
    nodes: dict[str, QueryNode] = {}
    parent: dict[str, str] = {}
    children: dict[str, list[str]] = {}
    edge_types: dict[str, EdgeType] = {}
    texts: list[tuple[str, str]] = []
    root = None
    for entry in data["nodes"]:
        predicate = shared_predicate(entry.get("atoms", ()))
        node_id = entry["id"]
        root = add_node(
            nodes,
            parent,
            children,
            edge_types,
            root,
            node_id,
            entry.get("parent"),
            entry.get("edge", "ad"),
            predicate,
            entry.get("kind", "backbone") == "backbone",
        )
        if "fs" in entry:
            texts.append((node_id, entry["fs"]))
    structural = {node_id: shared_formula(text) for node_id, text in texts}
    return assemble(root, nodes, parent, children, edge_types, structural, list(data["outputs"]))


def query_to_json(query: GTPQ, **dumps_kwargs) -> str:
    return json.dumps(query_to_dict(query), **dumps_kwargs)


def query_from_json(text: str) -> GTPQ:
    return query_from_dict(json.loads(text))


# ----------------------------------------------------------------------
# Canonicalization and fingerprints
# ----------------------------------------------------------------------
def _canonical_formula(formula: Formula, rename: dict[str, str] | None = None) -> str:
    """Order-independent rendering of a structural formula.

    ``And``/``Or`` operands are sorted by their canonical form (the smart
    constructors already flatten and deduplicate them), so conjunctions
    and disjunctions built in different operand orders canonicalize
    identically.  Fingerprinting only — serialization keeps ``str(fs)``.

    ``rename`` substitutes variable names before rendering; the subtree
    fingerprints use it to replace child node ids with content hashes.
    """
    if isinstance(formula, Var):
        return rename.get(formula.name, formula.name) if rename else formula.name
    if isinstance(formula, Const):
        return "1" if formula.value else "0"
    if isinstance(formula, Not):
        return f"!({_canonical_formula(formula.child, rename)})"
    if isinstance(formula, (And, Or)):
        separator = " & " if isinstance(formula, And) else " | "
        operands = sorted(_canonical_formula(child, rename) for child in formula.children)
        return "(" + separator.join(operands) + ")"
    return str(formula)  # future connectives: fall back to display form


def predicate_key(predicate: AttributePredicate) -> str:
    """Stable key of an attribute predicate: the JSON text of its
    canonical atoms.

    Two query nodes with the same atom set (in any order) share the key;
    the subtree fingerprints and :func:`query_fingerprint` embed it.
    """
    return predicate.canonical()[1]


def canonical_query_dict(query: GTPQ) -> dict[str, Any]:
    """Order-independent description of ``query``.

    Like :func:`query_to_dict`, but nodes are sorted by id and atoms are
    sorted and type-tagged, so structurally identical queries built with
    different sibling insertion orders canonicalize identically.  The
    reference definition of :func:`query_fingerprint`, which hashes its
    ``json.dumps(..., sort_keys=True, separators=(",", ":"))`` text.
    """
    nodes = []
    for node_id in sorted(query.nodes):
        node = query.nodes[node_id]
        entry: dict[str, Any] = {
            "id": node_id,
            "kind": "backbone" if node.is_backbone else "predicate",
            "atoms": node.predicate.canonical()[0],
        }
        if node_id != query.root:
            entry["parent"] = query.parent[node_id]
            entry["edge"] = query.edge_type(node_id).value
        fs = query.fs(node_id)
        if _nontrivial(fs):
            entry["fs"] = _canonical_formula(fs)
        nodes.append(entry)
    return {"nodes": nodes, "outputs": list(query.outputs)}


def _nontrivial(fs: Formula) -> bool:
    """Does a canonical form carry ``fs``?  Only a constant TRUE is left out."""
    return bool(fs.variables()) or fs.is_constant() and not fs.value


def subtree_fingerprints(query: GTPQ) -> dict[str, str]:
    """Canonical fingerprint of every rooted subtree of ``query``.

    Two subtrees — in the same query or in *different* queries — share a
    fingerprint iff they impose the same downward constraint: the same
    attribute predicate at the root and the same ``fext`` over children
    with matching edge types and (recursively) matching child subtrees.
    Node ids and sibling order do not participate: each child variable of
    ``fext(u)`` is renamed to ``"<edge>:<child fingerprint>"`` before the
    order-independent rendering, so the hash is stable under renaming and
    reordering.

    Equal fingerprints imply equal *downward match sets* over any data
    graph (the valuation of a child variable depends only on its edge
    type and the child's downward match set), which is what lets the
    session's subtree cache prune each distinct subtree once per graph
    version.  The converse does not hold — semantically
    equivalent but structurally different subtrees may hash apart, which
    costs sharing but never correctness.

    Computed once per query object (:meth:`GTPQ.derived`); callers get
    their own copy of the mapping.
    """
    return dict(query.derived("subtree_fingerprints", _subtree_fingerprints))


def _subtree_fingerprints(query: GTPQ) -> dict[str, str]:
    fingerprints: dict[str, str] = {}
    for node_id in query.bottom_up():
        rename = {
            child_id: f"{query.edge_type(child_id).value}:{fingerprints[child_id]}"
            for child_id in query.children[node_id]
        }
        # The JSON text of ``[canonical atoms, canonical fext]``; the
        # string encoder is what ``json.dumps`` of a ``str`` calls.
        formula = encode_basestring_ascii(_canonical_formula(query.fext(node_id), rename))
        payload = f"[{predicate_key(query.attribute(node_id))},{formula}]"
        fingerprints[node_id] = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return fingerprints


def subtree_fingerprint(query: GTPQ, node_id: str) -> str:
    """The canonical fingerprint of the subtree rooted at ``node_id``."""
    return subtree_fingerprints(query)[node_id]


def query_fingerprint(query: GTPQ) -> str:
    """SHA-256 hex digest of the canonical form of ``query``.

    The session layer keys its plan and result caches on this value; it is
    stable across processes and across :func:`query_to_dict` /
    :func:`query_from_dict` round trips.  The hashed text is exactly
    ``json.dumps(canonical_query_dict(query), sort_keys=True,
    separators=(",", ":"))``, written directly — keys in sorted order,
    each node's atoms as the cached :func:`predicate_key` text — instead
    of through a dict.
    """
    try:
        payload = _canonical_text(query)
    except TypeError:  # a non-string id: the reference encoder writes it
        payload = json.dumps(canonical_query_dict(query), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _canonical_text(query: GTPQ) -> str:
    """The canonical JSON text of ``query`` (string ids only)."""
    encode = encode_basestring_ascii
    root, parent = query.root, query.parent
    entries = []
    for node_id in sorted(query.nodes):
        node = query.nodes[node_id]
        entry = '{"atoms":' + node.predicate.canonical()[1]
        if node_id != root:
            entry += ',"edge":' + encode(query.edge_type(node_id).value)
        fs = query.fs(node_id)
        if _nontrivial(fs):
            entry += ',"fs":' + encode(_canonical_formula(fs))
        entry += ',"id":' + encode(node_id)
        entry += ',"kind":"backbone"' if node.is_backbone else ',"kind":"predicate"'
        if node_id != root:
            entry += ',"parent":' + encode(parent[node_id])
        entries.append(entry + "}")
    outputs = ",".join(map(encode, query.outputs))
    return '{"nodes":[' + ",".join(entries) + '],"outputs":[' + outputs + "]}"
