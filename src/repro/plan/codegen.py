"""Plan codegen — lower a physical plan into specialized Python.

The interpreted pipeline (:mod:`repro.engine.operators`) pays, per warm
execution, per-operator dispatch, a lazy ``PruningContext`` re-check per
node (``needs_pred_contour``), and a recursive
:func:`repro.logic.assignment.evaluate` call with a dict-backed
valuation for every fext on every candidate.  None of that work depends
on the data — only on the *plan* — so this backend performs it once per
plan fingerprint:

* each node's fext formula is lowered to a flat Python boolean
  expression (:mod:`repro.logic.codegen`): constant-TRUE fexts become a
  straight copy, constant-FALSE fexts (the PR 3 bug class — minimization
  can fold a subtree to ``0``) become the empty set, and everything else
  evaluates without AST traversal or dict lookups;
* the downward-prune loop is inlined for the concretely chosen
  reachability index — the 3-hop chain/contour path or the generic
  ``reaches`` fallback is decided at compile time, not per node;
* index probes are batched per candidate set: AD-child valuations are
  computed once per DAG component for the whole set (one call into the
  chain-shared scan), never per candidate.

One analysis (:func:`analyze_plan`) feeds one backend: Python source
for the whole scan + downward phase is emitted and run through
:func:`compile`; the source is kept on the artifact
(``CompiledPlanFunction.source``) for inspection and persistence.

The suffix of the pipeline (UpwardPrune → BuildMatchingGraph →
CollectResults) is *not* specialized: the generated function hands the
execution state to the existing operators, bypassing the per-operator
stats wrapper.

A plan qualifies when it routes to the GTEA executor and its downward
order covers the rewritten query (``PhysicalPlan.covers_query``);
baseline-routed, constant-empty and partially-ordered plans raise
:class:`CodegenError` — callers (``GTEA.execute`` behind
``QuerySession(codegen=...)``) fall back to the interpreted pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from time import perf_counter
from typing import Callable

from ..logic import Const, Formula
from ..logic.codegen import lower_formula
from ..query.gtpq import EdgeType
from .compile import CompiledPlan
from .route import codegen_refusal


class CodegenError(Exception):
    """The plan cannot be specialized; run the interpreted pipeline."""


# ----------------------------------------------------------------------
# Compile-time analysis
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NodeStep:
    """One downward-prune node visit, fully resolved at compile time.

    Attributes:
        node_id: the query node this step refines.
        backbone: empty survivors here empty the whole answer.
        kind: ``"copy"`` (constant-TRUE fext), ``"empty"``
            (constant-FALSE fext) or ``"filter"`` (per-candidate
            evaluation of ``fext``).
        fext: the non-constant formula for ``"filter"`` steps.
        ad_used: AD children the fext mentions, in child order — the
            positional AD bits of the lowered predicate.
        pc_used: PC children the fext mentions, in child order.
        needs_contour: a later step reads this node's predecessor
            contour (3-hop index only; AD children the parent's fext
            never mentions are skipped — fewer probes than the
            interpreted path, identical answers).
        label_scan: when the node's attribute predicate is a single
            ``label =`` atom, that label — the candidate scan is the
            graph's label posting itself, skipping the per-node
            ``predicate.matches`` re-check the generic scan pays.
    """

    node_id: str
    backbone: bool
    kind: str
    fext: Formula | None
    ad_used: tuple[str, ...]
    pc_used: tuple[str, ...]
    needs_contour: bool = False
    label_scan: str | None = None


@dataclass(frozen=True)
class PlanAnalysis:
    """Everything the emitter needs about one plan."""

    steps: tuple[NodeStep, ...]
    index_name: str
    three_hop: bool
    root: str

    @property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(step.node_id for step in self.steps)

    @property
    def folded_steps(self) -> int:
        """Steps decided entirely at compile time (constant fext)."""
        return sum(1 for step in self.steps if step.kind != "filter")


def analyze_plan(plan: CompiledPlan) -> PlanAnalysis:
    """Resolve every per-node decision of the downward phase, or raise.

    :class:`CodegenError` carries the disqualification reason — the
    same conditions under which :meth:`GTEA._instantiate` would
    abandon the plan's operator list.
    """
    physical = plan.physical
    refusal = codegen_refusal(physical)
    if refusal is not None:
        raise CodegenError(refusal)
    query = plan.query
    if not physical.covers_query(query):
        raise CodegenError("downward order does not cover the rewritten query")

    three_hop = physical.index_name == "3hop"
    steps: list[NodeStep] = []
    for node_id in physical.downward_order:
        fext = query.fext(node_id)
        backbone = query.nodes[node_id].is_backbone
        label = _label_only_scan(query.attribute(node_id))
        if isinstance(fext, Const):
            kind = "copy" if fext.value else "empty"
            steps.append(NodeStep(node_id, backbone, kind, None, (), (), label_scan=label))
            continue
        mentioned = fext.variables()
        children = query.children[node_id]
        if not mentioned <= set(children):
            stray = sorted(mentioned - set(children))
            raise CodegenError(f"fext of {node_id!r} mentions non-children {stray}")
        ad_used = tuple(
            c for c in children if c in mentioned and query.edge_type(c) is EdgeType.DESCENDANT
        )
        pc_used = tuple(
            c for c in children if c in mentioned and query.edge_type(c) is EdgeType.CHILD
        )
        steps.append(
            NodeStep(node_id, backbone, "filter", fext, ad_used, pc_used, label_scan=label)
        )

    contoured = {child for step in steps for child in step.ad_used} if three_hop else set()
    resolved = tuple(replace(step, needs_contour=step.node_id in contoured) for step in steps)
    return PlanAnalysis(
        steps=resolved,
        index_name=physical.index_name,
        three_hop=three_hop,
        root=query.root,
    )


def _label_only_scan(predicate) -> str | None:
    """The pinned label when the predicate is exactly ``label = x``.

    The graph's label index then *is* ``mat(u)`` — the generic scan's
    per-node ``predicate.matches`` pass over the posting is a no-op the
    specialized scan skips.
    """
    atoms = predicate.atoms
    if len(atoms) == 1 and atoms[0][0] == "label" and atoms[0][1] == "=":
        return atoms[0][2]
    return None


# ----------------------------------------------------------------------
# Runtime helpers of the generated source
# ----------------------------------------------------------------------
def _ad_bit_chain(context, candidates, child_id, contour, down):
    """One AD child's valuation per DAG component (3-hop chain scan)."""
    from ..engine.prune import _ad_valuations_by_component

    valuations = _ad_valuations_by_component(
        context, candidates, {child_id: contour}, {child_id: down}
    )
    return {component: v[child_id] for component, v in valuations.items()}


def _ad_bits_chain(context, candidates, specs):
    """AD bit tuples per DAG component; ``specs`` is ``((child, contour,
    down), ...)`` in the predicate's positional bit order."""
    from ..engine.prune import _ad_valuations_by_component

    valuations = _ad_valuations_by_component(
        context,
        candidates,
        {child_id: contour for child_id, contour, _ in specs},
        {child_id: down for child_id, _, down in specs},
    )
    order = tuple(spec[0] for spec in specs)
    return {
        component: tuple(v[child_id] for child_id in order)
        for component, v in valuations.items()
    }


def _ad_bit_generic(context, candidates, child_id, down):
    """One AD child's valuation per component, via plain ``reaches``."""
    from ..engine.prune import _ad_valuations_generic

    valuations = _ad_valuations_generic(context, candidates, {child_id: down})
    return {component: v[child_id] for component, v in valuations.items()}


def _ad_bits_generic(context, candidates, specs):
    """AD bit tuples per component; ``specs`` is ``((child, down), ...)``."""
    from ..engine.prune import _ad_valuations_generic

    valuations = _ad_valuations_generic(
        context, candidates, {child_id: down for child_id, down in specs}
    )
    order = tuple(spec[0] for spec in specs)
    return {
        component: tuple(v[child_id] for child_id in order)
        for component, v in valuations.items()
    }


def _close_downward(state, context, ops, started) -> None:
    """Book the downward phase's op count and wall time."""
    stats = state.stats
    context.downward_ops += ops
    stats.downward_prune_ops += ops
    phases = stats.phase_seconds
    phases["prune_downward"] = phases.get("prune_downward", 0.0) + (perf_counter() - started)


def _charge_probes(state, context, lookups0, entries0) -> None:
    """Attribute index probes issued since the baseline snapshot."""
    counters = context.reach.counters
    state.stats.index_lookups += counters.lookups - lookups0
    state.stats.index_entries += counters.entries_scanned - entries0


def _bail_empty_backbone(state, context, ops, started, lookups0, entries0):
    """Backbone-empty early exit: every match embeds every backbone
    node, so the remaining downward steps cannot matter (the same
    shortcut the adaptive driver takes)."""
    _close_downward(state, context, ops, started)
    _charge_probes(state, context, lookups0, entries0)
    return state.finish_empty()


def _finish_pipeline(state, context, ops, started, lookups0, entries0):
    """Close the downward phase and run the interpreted suffix.

    The suffix operators run directly (no ``_run_operator`` wrapper), so
    a codegen execution records *no* per-operator ``operator_stats``
    (and ``explain()`` shows no observed columns for it).
    """
    from ..engine.operators import BuildMatchingGraph, CollectResults, UpwardPrune

    _close_downward(state, context, ops, started)
    UpwardPrune().run(state)
    if not state.finished:
        BuildMatchingGraph().run(state)
    if not state.finished:
        CollectResults().run(state)
    _charge_probes(state, context, lookups0, entries0)
    return state


# ----------------------------------------------------------------------
# Source emission
# ----------------------------------------------------------------------
def emit_plan_source(analysis: PlanAnalysis) -> str:
    """The specialized function's Python source for one analyzed plan."""
    position_of = {step.node_id: k for k, step in enumerate(analysis.steps)}
    lines: list[str] = []
    emit = lines.append
    emit("def _specialized(state):")
    emit(
        f"    # {len(analysis.steps)}-node downward phase, "
        f"{analysis.index_name} index, {analysis.folded_steps} step(s) const-folded"
    )
    emit("    stats = state.stats")
    emit("    query = state.query")
    emit("    mats = state.mats")
    emit("    _t = _perf()")
    emit("    _prov = state.candidate_provider")
    emit("    if _prov is None:")
    emit("        _g = state.graph")
    if any(step.label_scan is not None for step in analysis.steps):
        emit("        _lbl = _g.nodes_with_label")
    for step in analysis.steps:
        if step.label_scan is not None:
            emit(f"        mats[{step.node_id!r}] = list(_lbl({step.label_scan!r}))")
        else:
            emit(f"        mats[{step.node_id!r}] = _cand(_g, query, {step.node_id!r})")
    emit("    else:")
    emit("        for _nid in _NODES:")
    emit("            mats[_nid] = list(_prov(query, _nid))")
    emit("    _ci = stats.candidates_initial")
    emit("    _tot = 0")
    emit("    for _nid in _NODES:")
    emit("        _n = len(mats[_nid])")
    emit("        _ci[_nid] = _n")
    emit("        _tot += _n")
    emit("    stats.input_nodes = _tot")
    emit("    _ph = stats.phase_seconds")
    emit("    _ph['candidates'] = _ph.get('candidates', 0.0) + (_perf() - _t)")
    emit(f"    if not mats[{analysis.root!r}]:")
    emit("        state.finish_empty()")
    emit("        return state")
    emit("    _ctx = state.context")
    emit("    _ic = _ctx.reach.counters")
    emit("    _lk0 = _ic.lookups")
    emit("    _es0 = _ic.entries_scanned")
    emit("    down = state.down")
    emit("    _cad = stats.candidates_after_downward")
    if any(step.ad_used for step in analysis.steps):
        emit("    _cof = _ctx.reach.component_of")
    if any(step.pc_used for step in analysis.steps):
        emit("    _parents = state.graph.parents_of")
    if any(step.needs_contour for step in analysis.steps):
        emit("    _idx = _ctx.index")
        emit("    _dimg = _ctx.dag_images")
    emit("    _ops = 0")
    emit("    _t = _perf()")
    for step in analysis.steps:
        _emit_step(emit, step, position_of, analysis.three_hop)
    emit("    return _finish(state, _ctx, _ops, _t, _lk0, _es0)")
    return "\n".join(lines) + "\n"


def _emit_step(emit, step: NodeStep, position_of: dict[str, int], three_hop: bool) -> None:
    """Emit one node's downward block into the specialized function."""
    k = position_of[step.node_id]
    nid = repr(step.node_id)
    if step.kind == "copy":
        emit(f"    # {step.node_id}: fext = 1 (copy)")
        emit(f"    _d{k} = down[{nid}] = mats[{nid}]")
    elif step.kind == "empty":
        emit(f"    # {step.node_id}: fext = 0 (const-empty)")
        emit(f"    _d{k} = down[{nid}] = []")
    else:
        emit(f"    # {step.node_id}: fext = {step.fext}")
        emit(f"    _m{k} = mats[{nid}]")
        names: dict[str, str] = {}
        for position, child in enumerate(step.ad_used):
            names[child] = f"_b{position}"
        for child in step.pc_used:
            j = position_of[child]
            names[child] = f"(_x in _ps{j})"
            emit(f"    _ps{j} = _parents(_d{j})")
        if step.ad_used:
            emit(f"    _fl{k} = {_ad_call(step, position_of, f'_m{k}', three_hop)}")
        expression = lower_formula(step.fext, names)
        if step.ad_used and not step.pc_used:
            bits = _bit_pattern(len(step.ad_used))
            emit(f"    _ok{k} = {{_co for _co, {bits} in _fl{k}.items() if {expression}}}")
            emit(f"    _d{k} = down[{nid}] = [_x for _x in _m{k} if _cof(_x) in _ok{k}]")
        elif not step.ad_used:
            emit(f"    _d{k} = down[{nid}] = [_x for _x in _m{k} if {expression}]")
        else:
            bits = _bit_pattern(len(step.ad_used))
            emit(f"    _sv{k} = []")
            emit(f"    _ap{k} = _sv{k}.append")
            emit(f"    for _x in _m{k}:")
            emit(f"        {bits} = _fl{k}[_cof(_x)]")
            emit(f"        if {expression}:")
            emit(f"            _ap{k}(_x)")
            emit(f"    _d{k} = down[{nid}] = _sv{k}")
    emit(f"    _cad[{nid}] = len(_d{k})")
    emit("    _ops += 1")
    if step.backbone:
        emit(f"    if not _d{k}:")
        emit("        return _bail(state, _ctx, _ops, _t, _lk0, _es0)")
    if step.needs_contour:
        emit(f"    _ct{k} = _mpred(_idx, _dimg(_d{k}))")


def _bit_pattern(count: int) -> str:
    """Unpack target for one component's AD bits (``_b0`` / ``(_b0, _b1)``)."""
    if count == 1:
        return "_b0"
    return "(" + ", ".join(f"_b{p}" for p in range(count)) + ")"


def _ad_call(step: NodeStep, position_of: dict[str, int], candidates: str, three_hop: bool) -> str:
    """The batched AD-valuation call for one filter step — the 3-hop
    chain scan or the generic ``reaches`` fallback, decided here at
    compile time rather than per node at run time."""
    positions = [position_of[child] for child in step.ad_used]
    if len(step.ad_used) == 1:
        child, j = step.ad_used[0], positions[0]
        if three_hop:
            return f"_ad1(_ctx, {candidates}, {child!r}, _ct{j}, _d{j})"
        return f"_gad1(_ctx, {candidates}, {child!r}, _d{j})"
    if three_hop:
        specs = ", ".join(
            f"({child!r}, _ct{j}, _d{j})" for child, j in zip(step.ad_used, positions)
        )
        return f"_adn(_ctx, {candidates}, ({specs}))"
    specs = ", ".join(f"({child!r}, _d{j})" for child, j in zip(step.ad_used, positions))
    return f"_gadn(_ctx, {candidates}, ({specs}))"


def _runtime_namespace(analysis: PlanAnalysis) -> dict:
    """The exec namespace of a generated function — every helper the
    emitted source references, nothing else (builtins restricted)."""
    from ..query.naive import candidate_nodes
    from ..reachability.contour import merge_pred_lists

    return {
        "__builtins__": {"len": len, "list": list},
        "_perf": perf_counter,
        "_cand": candidate_nodes,
        "_NODES": analysis.node_ids,
        "_mpred": merge_pred_lists,
        "_ad1": _ad_bit_chain,
        "_adn": _ad_bits_chain,
        "_gad1": _ad_bit_generic,
        "_gadn": _ad_bits_generic,
        "_bail": _bail_empty_backbone,
        "_finish": _finish_pipeline,
    }


# ----------------------------------------------------------------------
# The public artifact
# ----------------------------------------------------------------------
class CompiledPlanFunction:
    """A specialized executor for one plan: ``fn(state) -> state``.

    Cached by :class:`repro.engine.session.QuerySession` next to the
    plan cache (same fingerprint key, same graph-version invalidation).
    """

    __slots__ = ("fn", "source", "analysis")

    def __init__(self, fn: Callable, source: str, analysis: PlanAnalysis):
        self.fn = fn
        self.source = source
        self.analysis = analysis

    def __call__(self, state):
        return self.fn(state)

    @property
    def index_name(self) -> str:
        return self.analysis.index_name

    def describe(self) -> str:
        """One-line summary for ``explain()`` annotations."""
        folded = self.analysis.folded_steps
        note = f", {folded} const-folded" if folded else ""
        return (
            f"codegen[source] {len(self.analysis.steps)} nodes, "
            f"{self.analysis.index_name} index{note}"
        )

    def __repr__(self) -> str:
        return f"CompiledPlanFunction({self.describe()})"


def compile_plan(plan: CompiledPlan) -> CompiledPlanFunction:
    """Specialize ``plan``; raises :class:`CodegenError` if it can't be."""
    return rehydrate_plan_function(analyze_plan(plan))


def rehydrate_plan_function(
    analysis: PlanAnalysis, source: str | None = None
) -> CompiledPlanFunction:
    """Build a specialized function from its (possibly persisted) pieces.

    The warm store (:mod:`repro.store`) can only serialize the pure-data
    half of a :class:`CompiledPlanFunction` — its :class:`PlanAnalysis`
    and emitted source text; the executable half (an ``exec``'d function
    object) does not pickle.  Rehydration skips :func:`analyze_plan` and
    goes straight to ``compile``/``exec`` over the stored source.  When
    the source text is absent it is re-emitted from the analysis, which
    is deterministic.
    """
    if source is None:
        source = emit_plan_source(analysis)
    namespace = _runtime_namespace(analysis)
    exec(compile(source, "<repro.plan.codegen>", "exec"), namespace)
    return CompiledPlanFunction(namespace["_specialized"], source, analysis)
