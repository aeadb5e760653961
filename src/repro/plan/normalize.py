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

Minimization may *relocate* output nodes into isomorphic counterparts
(Algorithm 1 lines 12–15); :attr:`NormalizedQuery.output_mapping`
records original-output → rewritten-node so downstream consumers can
report results against the original query's output nodes.  Column order
is preserved by construction, so the rewritten query's answer tuples
are already aligned with the original outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.minimization import minimize_query
from ..analysis.satisfiability import is_query_satisfiable
from ..analysis.structure import AnalysisContext
from ..logic import Formula
from ..logic.transform import simplify
from ..query.gtpq import GTPQ


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

    unsat_backbone = [
        node_id
        for node_id in simplified.backbone_nodes()
        if not simplified.attribute(node_id).is_satisfiable()
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
