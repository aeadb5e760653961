"""Phase 1 of query compilation: normalize and shrink the query.

Runs the paper's own logical machinery *before* any candidate set is
fetched:

* every structural predicate goes through
  :func:`repro.logic.transform.simplify` (substitution residue such as
  ``p & 1`` or duplicated operands disappears);
* whole-query satisfiability is decided with
  :func:`repro.analysis.satisfiability.is_query_satisfiable` (Theorem 1)
  plus the backbone check the theorem assumes — a backbone node whose
  attribute predicate is unsatisfiable can never have an image, so the
  query is unsatisfiable regardless of ``fcs``;
* satisfiable queries are shrunk with
  :func:`repro.analysis.minimization.minimize_query` (Algorithm 1).

The outcome is a function of what :func:`normalize_key` collects — the
tree, the ``fs`` formulas, the outputs and the query's
:class:`~repro.query.gtpq.PredicateRelation` — and nothing else: the
analysis reads attribute predicates only through that relation, and
never the graph.  A session therefore keeps a memo from that key to a
:class:`NormalizeOutcome` and replays it onto a query whose key it has
met (template instances that differ only in their label constants);
:func:`normalize` itself remembers nothing between calls.

Minimization may *relocate* output nodes into isomorphic counterparts
(Algorithm 1 lines 12–15); :attr:`NormalizedQuery.output_mapping`
records original-output → rewritten-node so downstream consumers can
report results against the original query's output nodes.  Column order
is preserved by construction, so the rewritten query's answer tuples
are already aligned with the original outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter

from ..analysis.minimization import minimize_query
from ..analysis.satisfiability import is_query_satisfiable
from ..analysis.structure import AnalysisContext
from ..logic import Formula
from ..logic.transform import simplify
from ..query.gtpq import GTPQ, EdgeType


@dataclass(frozen=True)
class NormalizedQuery:
    """Outcome of the normalize phase.

    Attributes:
        original: the query as submitted.
        rewritten: the query the executor should run — simplified and
            minimized; equals ``original`` when nothing changed.
        satisfiable: Theorem-1 verdict; unsatisfiable queries compile to
            a constant-empty plan and never touch the graph.
        output_mapping: original output node → rewritten node carrying
            its column (identity unless minimization relocated it).
        removed_nodes: query nodes minimization dropped, in sorted order.
        simplified_predicates: nodes whose ``fs`` shrank under
            :func:`~repro.logic.transform.simplify`.
        notes: human-readable rewrite log for ``explain()``.
    """

    original: GTPQ
    rewritten: GTPQ
    satisfiable: bool
    output_mapping: dict[str, str] = field(default_factory=dict)
    removed_nodes: tuple[str, ...] = ()
    simplified_predicates: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def changed(self) -> bool:
        """Did normalization rewrite the query at all?"""
        return bool(
            self.removed_nodes
            or self.simplified_predicates
            or any(old != new for old, new in self.output_mapping.items())
        )

    def explain_lines(self) -> list[str]:
        lines = [
            f"input: {len(self.original.nodes)} nodes, "
            f"outputs {tuple(self.original.outputs)}",
        ]
        if not self.satisfiable:
            lines.append("verdict: UNSATISFIABLE -> constant-empty plan")
            lines.extend(f"  - {note}" for note in self.notes)
            return lines
        if self.simplified_predicates:
            lines.append("simplified fs at: " + ", ".join(self.simplified_predicates))
        if self.removed_nodes:
            lines.append(
                f"minimized: {len(self.original.nodes)} -> "
                f"{len(self.rewritten.nodes)} nodes "
                f"(removed {', '.join(self.removed_nodes)})"
            )
        relocated = {old: new for old, new in self.output_mapping.items() if old != new}
        if relocated:
            lines.append(
                "relocated outputs: "
                + ", ".join(f"{old} -> {new}" for old, new in relocated.items())
            )
        if not self.changed:
            lines.append("already minimal: no rewrites applied")
        lines.extend(f"  - {note}" for note in self.notes)
        return lines


def _simplify_structural(query: GTPQ) -> tuple[GTPQ, tuple[str, ...]]:
    """Push every ``fs`` through the smart constructors; report changes."""
    overrides: dict[str, Formula] = {}
    for node_id in query.nodes:
        fs = query.fs(node_id)
        simplified = simplify(fs)
        if simplified != fs:
            overrides[node_id] = simplified
    if not overrides:
        return query, ()
    return (
        query.copy(structural_override=overrides),
        tuple(sorted(overrides)),
    )


def normalize(query: GTPQ, *, minimize: bool = True) -> NormalizedQuery:
    """Run the normalize phase; see the module docstring for the steps.

    Args:
        query: the query to compile.
        minimize: run Algorithm 1 after the satisfiability check.  The
            simplification and satisfiability steps always run — they are
            linear-to-SAT on query-sized formulas, while minimization
            performs the heavier Theorem-3 containment check on every
            removal it proposes.
    """
    simplified, simplified_ids = _simplify_structural(query)
    notes: list[str] = []
    # One analysis per query object for this call: minimization starts from
    # the satisfiability pass's normalized query and fcs, and the re-check
    # below finds the last fixpoint round's.  Dropped on return.
    context = AnalysisContext()

    attribute_satisfiable = simplified.relation().satisfiable
    unsat_backbone = [
        node_id for node_id in simplified.backbone_nodes() if not attribute_satisfiable[node_id]
    ]
    if unsat_backbone:
        notes.append(
            "backbone node(s) with unsatisfiable attribute predicate: "
            + ", ".join(sorted(unsat_backbone))
        )
        satisfiable = False
    else:
        satisfiable = is_query_satisfiable(simplified, context)
        if not satisfiable:
            notes.append("Theorem 1: fa(root) & fcs(root) unsatisfiable")
    if not satisfiable:
        return NormalizedQuery(
            original=query,
            rewritten=simplified,
            satisfiable=False,
            output_mapping={o: o for o in query.outputs},
            simplified_predicates=simplified_ids,
            notes=tuple(notes),
        )

    rewritten = simplified
    removed: tuple[str, ...] = ()
    output_mapping = {o: o for o in query.outputs}
    if minimize:
        minimized = minimize_query(simplified, context)
        if len(minimized.outputs) == len(query.outputs):
            rewritten = minimized
            removed = tuple(sorted(set(simplified.nodes) - set(minimized.nodes)))
            output_mapping = dict(zip(query.outputs, minimized.outputs))
        else:  # pragma: no cover - defensive: keep the sound rewrite only
            notes.append("minimization dropped an output column; rewrite discarded")
        # Dropping an unsatisfiable subtree substitutes its variable to 0,
        # which can collapse an ancestor's fs to FALSE — a constant-empty
        # query Theorem 1 could not see before the rewrite (it treats
        # child variables as independent, so inter-child containment such
        # as a PC child entailing an AD sibling only surfaces once
        # minimization folds it in).  Re-check the rewritten query.
        if rewritten is not simplified and not is_query_satisfiable(rewritten, context):
            notes.append("minimization exposed unsatisfiability -> constant-empty plan")
            return NormalizedQuery(
                original=query,
                rewritten=rewritten,
                satisfiable=False,
                output_mapping=output_mapping,
                removed_nodes=removed,
                simplified_predicates=simplified_ids,
                notes=tuple(notes),
            )
    return NormalizedQuery(
        original=query,
        rewritten=rewritten,
        satisfiable=True,
        output_mapping=output_mapping,
        removed_nodes=removed,
        simplified_predicates=simplified_ids,
        notes=tuple(notes),
    )


# Edge types enter the key as their codes: a str hashes in C, an Enum
# member through a Python ``__hash__`` on every probe of the memo.
_EDGE_CODES = {edge: edge.value for edge in EdgeType}
_IS_BACKBONE = attrgetter("is_backbone")


def normalize_key(query: GTPQ) -> tuple:
    """Everything :func:`normalize` reads of ``query``, as a hashable key.

    One flat tuple: the node count, then over the nodes in insertion order
    their ids, parents, edge types, backbone flags, ``fs``, satisfiability
    bits and subsumer rows; then their child lists, concatenated in that
    order (with the parents, this fixes every child list) and the outputs.
    Insertion and sibling order are in the key because Algorithm 1 scans
    ``query.nodes`` and relocates an output to the first similar
    counterpart in pre-order; predicates are not, beyond the relation.
    Equal keys normalize alike (with ``minimize=True``).
    """
    relation = query.relation()
    nodes = query.nodes
    return (
        len(nodes),
        *nodes,
        *map(query.parent.get, nodes),
        *map(_EDGE_CODES.get, map(query.edge_types.get, nodes)),
        *map(_IS_BACKBONE, nodes.values()),
        *map(query.structural.__getitem__, nodes),
        *map(relation.satisfiable.__getitem__, nodes),
        *map(relation.subsumers.__getitem__, nodes),
        *chain.from_iterable(map(query.children.__getitem__, nodes)),
        *query.outputs,
    )


@dataclass(frozen=True, slots=True)
class NormalizeOutcome:
    """What :func:`normalize` decided, detached from the query it ran on.

    Attributes:
        satisfiable: the verdict.
        rewrites: whether the rewritten query is a new object.
        dropped: roots of the subtrees the rewrite removed.
        structural: the rewritten ``fs`` of each kept node whose formula
            is not the original's object.
        outputs: the rewritten query's outputs — the output mapping's
            values, in original output order.
        removed_nodes, simplified_predicates, notes: as in
            :class:`NormalizedQuery`.
    """

    satisfiable: bool
    rewrites: bool
    dropped: tuple[str, ...]
    structural: dict[str, Formula]
    outputs: tuple[str, ...]
    removed_nodes: tuple[str, ...]
    simplified_predicates: tuple[str, ...]
    notes: tuple[str, ...]

    @classmethod
    def of(cls, normalized: NormalizedQuery) -> "NormalizeOutcome":
        original, rewritten = normalized.original, normalized.rewritten
        rewrites = rewritten is not original
        dropped: tuple[str, ...] = ()
        structural: dict[str, Formula] = {}
        if rewrites:
            kept = rewritten.nodes
            dropped = tuple(
                node_id
                for node_id in original.nodes
                if node_id not in kept and original.parent[node_id] in kept
            )
            structural = {
                node_id: fs
                for node_id, fs in rewritten.structural.items()
                if fs is not original.structural[node_id]
            }
        return cls(
            satisfiable=normalized.satisfiable,
            rewrites=rewrites,
            dropped=dropped,
            structural=structural,
            outputs=tuple(rewritten.outputs),
            removed_nodes=normalized.removed_nodes,
            simplified_predicates=normalized.simplified_predicates,
            notes=normalized.notes,
        )

    def replay(self, query: GTPQ) -> NormalizedQuery:
        """The :class:`NormalizedQuery` of ``query``, whose
        :func:`normalize_key` is the one this outcome was recorded under:
        one :meth:`GTPQ.copy` when the query was rewritten, no analysis."""
        # Ids are handed out as ``query``'s own strings, as normalize()
        # would: a replayed plan pickles like a cold one.
        own = {node_id: node_id for node_id in query.nodes}
        outputs = [own[o] for o in self.outputs]
        rewritten = query
        if self.rewrites:
            rewritten = query.copy(
                drop=self.dropped,
                structural_override=self.structural,
                outputs_override=outputs,
            )
        return NormalizedQuery(
            original=query,
            rewritten=rewritten,
            satisfiable=self.satisfiable,
            output_mapping=dict(zip(query.outputs, outputs)),
            removed_nodes=tuple(own[n] for n in self.removed_nodes),
            simplified_predicates=tuple(own[n] for n in self.simplified_predicates),
            notes=self.notes,
        )
