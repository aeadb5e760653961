"""Interned query subtrees: a miss analyses only the subtrees that no
live query holds yet.

What planning and the subtree cache read of a rooted query subtree
depends on that subtree alone: its ``fs`` (with the default of
:func:`~repro.query.builder.assemble`), its ``fext``, its canonical
fingerprint (:func:`~repro.query.serialize.subtree_fingerprints`) and
its node's entry in the canonical text that
:func:`~repro.query.serialize.query_fingerprint` hashes.  This module
hash-conses them (Filliâtre & Conchon, "Type-safe modular hash-consing",
2006): one :class:`Subtree` record per distinct subtree, in a
process-wide weak table.

The key is the node's :class:`~repro.query.gtpq.QueryNode` (by
identity), its parent id, its edge, its ``fs`` and its children's
records in order.  Parsing hands one ``QueryNode`` to every query with
the same JSON entry (:func:`~repro.query.serialize.query_from_dict`),
and :meth:`~repro.query.gtpq.GTPQ.copy` keeps its nodes, so parsed
queries share records, and their rewrites share every subtree a rewrite
left alone; a node built anew starts records of its own.  A query holds
its records (``GTPQ._facts["records"]``: a parsed query from the start,
any other from its first read), and the table holds none: an entry goes
with the last query that holds its record.  Two threads that miss one
key at once each build a record; the later entry wins, and either is
correct.
"""

from __future__ import annotations

import hashlib
from json.encoder import encode_basestring_ascii
from weakref import WeakValueDictionary

from ..logic.formula import TRUE, And, Const, Formula, Not, Or, Var, land
from .attribute import live

#: ``(node, parent id, edge, fs, *child records)`` → the live record.
_SUBTREES: WeakValueDictionary = WeakValueDictionary()


class Subtree:
    """The analysed record of one rooted query subtree: its key, the
    node, parent id, edge (None at the root) and ``fs`` that open it,
    and ``fext``.  The fingerprint and the canonical-text fragment are
    built when first read: analysis copies read ``fext`` only.

    ``source`` and ``row`` are the planner's: the node's last
    ``CandidateSource`` and ``DownwardPrune`` row
    (:mod:`repro.plan.logical`, :mod:`repro.plan.physical`).  Both are
    functions of the node and its estimate, so the next plan over the
    record reuses them while the estimate holds.
    """

    __slots__ = ("key", "node", "parent", "edge", "fs", "fext", "_fingerprint", "_fragment")
    __slots__ += ("source", "row", "__weakref__")

    def __init__(self, key: tuple, fext: Formula):
        self.key = key
        self.node, self.parent, self.edge, self.fs = key[:4]
        self.fext = fext
        self._fingerprint = self._fragment = self.source = self.row = None

    @property
    def children(self) -> tuple["Subtree", ...]:
        """The child records, in child-list order."""
        return self.key[4:]

    def fingerprint(self) -> str:
        """The canonical fingerprint of the subtree: SHA-256 of the JSON
        text of ``[canonical atoms, canonical fext]``, each child variable
        renamed to ``"<edge>:<child fingerprint>"``."""
        if self._fingerprint is None:
            rename = {
                child.node.id: f"{child.edge.value}:{child.fingerprint()}"
                for child in self.children
            }
            # The string encoder is what ``json.dumps`` of a ``str`` calls.
            formula = encode_basestring_ascii(canonical_formula(self.fext, rename))
            payload = f"[{self.node.predicate.canonical()[1]},{formula}]"
            self._fingerprint = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        return self._fingerprint

    def fragment(self) -> str:
        """The node's entry in the canonical JSON text of its query, keys
        in sorted order (string ids only: another id raises TypeError)."""
        if self._fragment is None:
            encode, node, parent = encode_basestring_ascii, self.node, self.parent
            text = '{"atoms":' + node.predicate.canonical()[1]
            if parent is not None:
                text += ',"edge":' + encode(self.edge.value)
            if nontrivial(self.fs):
                text += ',"fs":' + encode(canonical_formula(self.fs))
            text += ',"id":' + encode(node.id)
            text += ',"kind":"backbone"' if node.is_backbone else ',"kind":"predicate"'
            if parent is not None:
                text += ',"parent":' + encode(parent)
            self._fragment = text + "}"
        return self._fragment


def subtree(key: tuple, memo=None) -> Subtree:
    """The record of ``key`` — ``(node, parent id, edge, fs, *child
    records)``, with None for the root's parent and edge — shared with
    every live query that holds the same subtree.  A new record's
    ``fext`` is :func:`fext_of`, or ``memo.fext(fs, child records)``
    when a parse passes the node's entry, which remembers its last."""
    record = live(_SUBTREES, key)
    if record is None:
        fs, children = key[3], key[4:]
        fext = fext_of(fs, children) if memo is None else memo.fext(fs, children)
        record = _SUBTREES[key] = Subtree(key, fext)
    return record


def fext_of(fs: Formula, children) -> Formula:
    """``fext`` of a node with formula ``fs`` over these child records:
    their backbone variables AND ``fs``, as :func:`land` builds it (so
    an unsimplified ``fs`` is folded).  Over string ids and a TRUE ``fs``
    it is the conjunction of the variables, built as ``land`` would,
    without its deduplication: distinct ids name distinct variables."""
    ids = [child.node.id for child in children if child.node.is_backbone]
    if fs is TRUE and all(type(node_id) is str for node_id in ids):
        if len(ids) < 2:
            return Var(ids[0]) if ids else TRUE
        return And(map(Var, ids))
    return land(*map(Var, ids), fs)


def subtree_records(query) -> dict[str, Subtree]:
    """The record of every rooted subtree of ``query``, built bottom-up."""
    nodes, parent, children = query.nodes, query.parent, query.children
    edge_types, structural = query.edge_types, query.structural
    records: dict[str, Subtree] = {}
    for node_id in query.bottom_up():
        parent_id = parent.get(node_id)
        edge = None if parent_id is None else edge_types[node_id]
        kids = map(records.__getitem__, children[node_id])
        records[node_id] = subtree((nodes[node_id], parent_id, edge, structural[node_id], *kids))
    return records


def canonical_formula(formula: Formula, rename: dict[str, str] | None = None) -> str:
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
        return f"!({canonical_formula(formula.child, rename)})"
    if isinstance(formula, (And, Or)):
        separator = " & " if isinstance(formula, And) else " | "
        operands = sorted(canonical_formula(child, rename) for child in formula.children)
        return "(" + separator.join(operands) + ")"
    return str(formula)  # future connectives: fall back to display form


def nontrivial(fs: Formula) -> bool:
    """Does a canonical form carry ``fs``?  Only a constant TRUE is left out."""
    return bool(fs.variables()) or fs.is_constant() and not fs.value
