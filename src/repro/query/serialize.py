"""GTPQ (de)serialization to plain dictionaries / JSON, plus fingerprints.

Workload files in :mod:`repro.datasets` and the examples use this format;
formulas round-trip through the text parser.

Fingerprints (:func:`query_fingerprint`, :func:`subtree_fingerprints`) are
stable content hashes used as cache keys by
:class:`repro.engine.session.QuerySession`:
two queries that serialize to the same canonical form — regardless of node
insertion order, or of a round trip through :func:`query_to_dict` /
:func:`query_from_dict` when every ``fs`` is simplified — share one
fingerprint.  Output order is part of
the fingerprint (it determines result-tuple column order); sibling order
is not.  Both are composed from the query's interned subtree records
(:mod:`repro.query.subtrees`), which :func:`query_from_dict` builds from
interned node entries.
"""

from __future__ import annotations

import hashlib
import json
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Any
from weakref import WeakValueDictionary

from ..logic.formula import TRUE, Formula
from ..logic.parser import shared_formula
from .attribute import AttributePredicate, atom_key, keyed_predicate, live
from .builder import add_node, assemble
from .gtpq import GTPQ, EdgeType, QueryNode
from .subtrees import canonical_formula, fext_of, nontrivial, subtree


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
        # Left out only where query_from_dict defaults to it: a TRUE fs
        # over no predicate child (with some, it would conjoin them).
        children = query.children[node_id]
        if fs != TRUE or any(not query.nodes[child].is_backbone for child in children):
            entry["fs"] = str(fs)
        nodes.append(entry)
    return {"nodes": nodes, "outputs": list(query.outputs)}


def query_from_dict(data: dict[str, Any]) -> GTPQ:
    """Rebuild a query produced by :func:`query_to_dict`.

    Accepts what :class:`QueryBuilder` accepts, with its errors and
    defaults: nodes in parent-before-child order, ``kind`` defaulting
    to ``"backbone"`` and ``edge`` to ``"ad"``.  Each node entry is
    interned (:class:`_Entry`): an entry met in an earlier live query
    hands back its node, predicate, edge and ``fs`` as they were built.
    Once the query has validated, its subtrees are interned children
    first (:mod:`repro.query.subtrees`), so it starts with every record;
    a subtree met before is not analysed or fingerprinted again.
    """
    nodes: dict[str, QueryNode] = {}
    parent: dict[str, str] = {}
    children: dict[str, list[str]] = {}
    edge_types: dict[str, EdgeType] = {}
    structural: dict[str, Formula] = {}
    entries = []
    root = None
    for raw in data["nodes"]:
        entry = _entry(raw)
        node = entry.node
        root = add_node(nodes, parent, children, edge_types, root, node, entry.parent, entry.edge)
        if entry.fs is not None:
            structural[node.id] = entry.fs
        entries.append(entry)
    query = assemble(root, nodes, parent, children, edge_types, structural, list(data["outputs"]))
    # Parents come before their children, so the reversed entries are
    # children first; the entries' nodes key the records.
    children, structural, records = query.children, query.structural, {}
    for entry in reversed(entries):
        node = entry.node
        kids = map(records.__getitem__, children[node.id])
        key = (node, entry.parent, entry.edge, structural[node.id], *kids)
        records[node.id] = entry.last = subtree(key, entry)
    query._facts["records"] = records
    query._facts["entries"] = entries  # held here, or they would die at once
    return query


class _Entry:
    """One interned JSON node entry: its node (with the shared predicate),
    its parent id, its edge (None at the root), its shared ``fs`` (None
    when the entry has none) and the last subtree record parsed for it."""

    __slots__ = ("node", "parent", "edge", "fs", "last", "__weakref__")

    def __init__(self, node: QueryNode, parent: str | None, edge: EdgeType | None, fs):
        self.node, self.parent, self.edge, self.fs = node, parent, edge, fs
        self.last = None

    def fext(self, fs: Formula, children) -> Formula:
        """:func:`~repro.query.subtrees.fext_of` of this entry's node with
        formula ``fs`` over the child records ``children``: the last
        record's when its ``fs`` and its children's nodes, which fix the
        variables, are these — a new record of an entry seldom differs
        there, only further down."""
        last = self.last
        if (
            last is not None
            and last.fs == fs
            and tuple(map(_NODE, last.children)) == tuple(map(_NODE, children))
        ):
            return last.fext
        return fext_of(fs, children)


#: ``(id, parent, edge, kind, fs text, atom key)`` → the live entry record.
_ENTRIES: WeakValueDictionary = WeakValueDictionary()
_TEXT = frozenset({str, type(None)})
_NODE = attrgetter("node")


def _entry(raw: dict[str, Any]) -> _Entry:
    """The record of one JSON node entry, shared with every live query
    that holds an equal entry.  The atoms are keyed by
    :func:`~repro.query.attribute.atom_key`'s rule, and the other fields
    must be text (an id, a parent, an edge, a kind; ``parent`` and ``fs``
    may be absent), or ``1`` and ``true`` would share; an entry that
    breaks either rule is built and not entered.  Raises what
    :class:`QueryBuilder` raises for a bad operator, edge or ``fs``."""
    atoms, atoms_key = atom_key(raw.get("atoms", ()))
    node_id = raw["id"]
    parent_id = raw.get("parent")
    edge = raw.get("edge", "ad")
    kind = raw.get("kind", "backbone")
    text = raw.get("fs")
    key = None
    if (
        atoms_key is not None
        and type(node_id) is str
        and type(edge) is str
        and type(kind) is str
        and type(parent_id) in _TEXT
        and type(text) in _TEXT
    ):
        key = (node_id, parent_id, edge, kind, text, atoms_key)
        entry = live(_ENTRIES, key)
        if entry is not None:
            return entry
    predicate = keyed_predicate(atoms, atoms_key)
    entry = _Entry(
        QueryNode(node_id, predicate, kind == "backbone"),
        parent_id,
        None if parent_id is None else EdgeType.parse(edge),
        None if text is None else shared_formula(text),
    )
    if key is not None:
        if predicate.atoms == atoms_key:  # keyed by the predicate's own tuples
            key = (node_id, parent_id, edge, kind, text, predicate.atoms)
        _ENTRIES[key] = entry
    return entry


def query_to_json(query: GTPQ, **dumps_kwargs) -> str:
    return json.dumps(query_to_dict(query), **dumps_kwargs)


def query_from_json(text: str) -> GTPQ:
    return query_from_dict(json.loads(text))


# ----------------------------------------------------------------------
# Canonicalization and fingerprints
# ----------------------------------------------------------------------
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
        if nontrivial(fs):
            entry["fs"] = canonical_formula(fs)
        nodes.append(entry)
    return {"nodes": nodes, "outputs": list(query.outputs)}


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

    Read off the query's interned subtree records
    (:meth:`GTPQ.records <repro.query.gtpq.GTPQ.records>`), each hashed
    once while any live query holds it, children first (so no hash waits
    on a deeper one); callers get their own mapping.
    """
    return {node_id: record.fingerprint() for node_id, record in query.records().items()}


def subtree_fingerprint(query: GTPQ, node_id: str) -> str:
    """The canonical fingerprint of the subtree rooted at ``node_id``."""
    return subtree_fingerprints(query)[node_id]


def query_fingerprint(query: GTPQ) -> str:
    """SHA-256 hex digest of the canonical form of ``query``.

    The session layer keys its plan and result caches on this value; it is
    stable across processes, and across :func:`query_to_dict` /
    :func:`query_from_dict` round trips of queries whose ``fs`` formulas
    are simplified, as the builder and the parser leave them.  An
    unsimplified one (substitution residue such as ``p & 1``) comes back
    simplified: the round trip answers alike but may fingerprint apart.
    The hashed text is exactly
    ``json.dumps(canonical_query_dict(query), sort_keys=True,
    separators=(",", ":"))``, written directly: each node's entry is the
    :meth:`~repro.query.subtrees.Subtree.fragment` its subtree record
    renders once.
    """
    try:
        payload = _canonical_text(query)
    except TypeError:  # a non-string id: the reference encoder writes it
        payload = json.dumps(canonical_query_dict(query), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _canonical_text(query: GTPQ) -> str:
    """The canonical JSON text of ``query`` (string ids only)."""
    records = query.records()
    nodes = ",".join([records[node_id].fragment() for node_id in sorted(query.nodes)])
    outputs = ",".join(map(encode_basestring_ascii, query.outputs))
    return '{"nodes":[' + nodes + '],"outputs":[' + outputs + "]}"
