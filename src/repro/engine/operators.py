"""The physical-operator pipeline — execution as a list of operators.

The paper's evaluation algorithm (Section 4) is a fixed sequence:
candidates → PruneDownward → PruneUpward → matching graph →
CollectResults.  This module breaks that sequence into small stateful
operators, each exposing ``run(state) -> state`` over a shared
:class:`ExecutionState`:

* :class:`CandidateScan` — fetch ``mat(u)`` for every query node
  (:func:`scan_candidates`);
* :class:`DownwardPrune` — one Procedure-6 node visit (one per query
  node, children before parents), or a subtree-cache hit;
* :class:`UpwardPrune` — Procedure 7 over the prime subtree;
* :class:`BuildMatchingGraph` — shrink + assemble the matching graph;
* :class:`CollectResults` — Algorithm CollectResults (incl. group
  nodes and alternative output structures);
* :class:`ConstantEmpty` — the O(1) answer for unsatisfiable plans.

:func:`run_pipeline` drives an operator list and records one
:class:`OperatorStats` per executed operator (input/output set sizes,
wall time, index probes) into ``EvaluationStats.operator_stats`` — the
observed columns of ``explain()``.

**Adaptive prune reordering** (``adaptive=True``): any
children-before-parents permutation of the :class:`DownwardPrune`
operators is valid (each visit only reads refined child sets), so the
driver may re-plan mid-flight.  After every downward step it re-sorts
the remaining obligations by *actual* candidate-set sizes — the node's
fetched candidate count plus its children's post-prune survivor counts
— instead of the compile-time estimates, tie-breaking on node id for
determinism.  Because every backbone node must have an image in every
match, the adaptive driver also short-circuits to the empty answer as
soon as any backbone node's downward set becomes empty, skipping the
remaining downward operators entirely.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import compress

from ..graph.digraph import DataGraph
from ..query.attribute import AttributePredicate
from ..query.gtpq import GTPQ
from ..query.serialize import subtree_fingerprints
from .matching_graph import build_matching_graph
from .prime import compute_prime_subtree, shrink_prime_subtree
from .prune import (
    MatSets,
    PruningContext,
    build_pred_contour,
    downward_step,
    needs_pred_contour,
    prune_upward,
)
from .results import ResultSet, collect_results
from .stats import EvaluationStats


@dataclass
class OperatorStats:
    """Observed runtime statistics of one executed operator."""

    op: str  #: operator class name (``"DownwardPrune"``, ...).
    target: str | None  #: query node for per-node operators, else None.
    input_size: int  #: elements read (candidate/survivor counts).
    output_size: int  #: elements produced.
    seconds: float  #: wall time of this operator's ``run``.
    index_lookups: int  #: reachability-index probes issued.
    index_entries: int  #: index-list elements scanned.
    note: str = ""  #: free-form annotation (``"early-exit"``, ...).

    @property
    def label(self) -> str:
        return f"{self.op}({self.target})" if self.target else self.op


class ExecutionState:
    """Mutable state threaded through one pipeline execution.

    Operators read and write these fields; the driver owns timing and
    index-probe attribution.  ``finished`` short-circuits the rest of
    the pipeline (empty intermediate sets, unsatisfiable plans, the
    adaptive early exit).
    """

    def __init__(
        self,
        engine,
        query: GTPQ,
        stats: EvaluationStats,
        *,
        group_nodes: tuple[str, ...] = (),
        output_structures: list[list[str]] | None = None,
        candidate_provider=None,
        subtree_cache=None,
    ):
        self.engine = engine
        self.graph = engine.graph
        self.query = query
        self.stats = stats
        self.group_nodes = group_nodes
        self.output_structures = output_structures
        self.candidate_provider = candidate_provider
        #: optional LRU of downward-pruned sets keyed by subtree
        #: fingerprint (the session's, one graph version's worth).
        self.subtree_cache = subtree_cache
        self._subtree_fingerprints: dict[str, str] | None = None
        #: initial candidate sets, filled by :class:`CandidateScan`.
        self.mats: MatSets = {}
        #: downward-pruned (and later upward-pruned) survivor sets.
        self.down: MatSets = {}
        self.prime: list[str] = []
        self.prime_outputs: list[str] = []
        self.fragments = None
        self.matching_graph = None
        self.answer: ResultSet | dict[int, ResultSet] | None = None
        self.finished = False
        self._context: PruningContext | None = None
        #: counter snapshot taken the moment the context (and so the
        #: index) came into play — the zero point of this execution's
        #: probe attribution.  The engine's counters are cumulative
        #: across executions; without this baseline the first
        #: index-touching operator would be charged all history.
        self._counter_baseline: dict[str, int] | None = None

    @property
    def context(self) -> PruningContext:
        """The pruning context, built lazily (first index-touching op).

        Laziness keeps plans that never probe an index — unsatisfiable
        ones — from paying index construction.
        """
        if self._context is None:
            self._context = PruningContext(self.graph, self.query, self.engine.reachability)
            self._counter_baseline = self._context.reach.counters.snapshot()
        return self._context

    def subtree_fingerprint(self, node_id: str) -> str:
        """Subtree-cache key of ``node_id`` in the query this execution
        runs; the fingerprints are derived once per execution."""
        if self._subtree_fingerprints is None:
            self._subtree_fingerprints = subtree_fingerprints(self.query)
        return self._subtree_fingerprints[node_id]

    def index_snapshot(self) -> dict[str, int] | None:
        """Reachability counters, or None while no index exists yet."""
        if self._context is None:
            return None
        return self._context.reach.counters.snapshot()

    def finish(self, answer: ResultSet | dict[int, ResultSet]) -> "ExecutionState":
        self.answer = answer
        self.finished = True
        return self

    def finish_empty(self) -> "ExecutionState":
        """Terminate with the empty answer (per output structure)."""
        self.stats.result_count = 0
        if self.output_structures is not None:
            return self.finish({position: set() for position in range(len(self.output_structures))})
        return self.finish(set())


class Operator:
    """Base class: one pipeline stage, ``run(state) -> state``."""

    #: query node this operator targets (per-node operators only).
    target: str | None = None
    #: annotation a run leaves on its record (``"subtree-cache"``).
    note: str = ""

    @property
    def name(self) -> str:
        return type(self).__name__

    def run(self, state: ExecutionState) -> ExecutionState:  # pragma: no cover
        raise NotImplementedError

    def __repr__(self) -> str:
        suffix = f"({self.target})" if self.target else ""
        return f"{self.name}{suffix}"


def pinned_label_atom(predicate: AttributePredicate) -> int | None:
    """Position of the first ``label = c`` atom whose label posting is
    exactly its match set, or None.

    ``c`` must not be None (a None label has no posting) and must equal
    itself: NaN keys a posting by identity yet equals no label, not even
    its own.
    """
    for position, (attribute, op, constant) in enumerate(predicate.atoms):
        if attribute == "label" and op == "=" and constant is not None and constant == constant:
            return position
    return None


def scan_candidates(graph: DataGraph, predicate: AttributePredicate) -> tuple[int, ...]:
    """``mat(u)``: the nodes satisfying ``predicate``, ascending.

    A pinned label (:func:`pinned_label_atom`) reads the graph's label
    posting: alone, it *is* the answer — the stored tuple, not a copy;
    with other atoms, only those are checked, against the live attribute
    dicts (:meth:`~repro.graph.digraph.DataGraph.attrs_of`).  Without a
    pinned label every node is checked.  The oracle's
    :func:`~repro.query.naive.candidate_nodes` keeps its own per-node
    check of every atom, so it checks this scan independently.
    """
    atoms = predicate.atoms
    position = pinned_label_atom(predicate)
    if position is None:
        pool, rest = graph.nodes(), predicate
    else:
        pool = graph.nodes_with_label(atoms[position][2])
        if len(atoms) == 1:
            return pool
        rest = AttributePredicate(atoms[:position] + atoms[position + 1 :])
    if not rest.atoms:
        return tuple(pool)
    return tuple(compress(pool, map(rest.matches, graph.attrs_of(pool))))


class CandidateScan(Operator):
    """Fetch the initial ``mat(u)`` of every query node."""

    def run(self, state: ExecutionState) -> ExecutionState:
        stats, query, provider = state.stats, state.query, state.candidate_provider
        with stats.time_phase("candidates"):
            for node_id in query.nodes:
                if provider is not None:
                    nodes = provider(query, node_id)
                else:
                    nodes = scan_candidates(state.graph, query.attribute(node_id))
                # The one copy per scan: pruning gets a list of its own.
                state.mats[node_id] = list(nodes)
                stats.candidates_initial[node_id] = len(nodes)
            stats.input_nodes = sum(stats.candidates_initial.values())
        if not state.mats[query.root]:
            return state.finish_empty()
        return state


class DownwardPrune(Operator):
    """One node visit of Procedure 6, fed with refined child sets.

    The downward set of a node depends only on the subtree rooted at it,
    so with a subtree cache the visit first looks up the subtree's
    fingerprint: a hit is the set an earlier execution pruned at this
    graph version — no prune op, no index probe — and a miss stores
    what the visit prunes.
    """

    def __init__(self, target: str):
        self.target = target

    def run(self, state: ExecutionState) -> ExecutionState:
        context = state.context
        node_id = self.target
        stats, cache = state.stats, state.subtree_cache
        with stats.time_phase("prune_downward"):
            cached = None
            if cache is not None:
                fingerprint = state.subtree_fingerprint(node_id)
                cached = cache.get(fingerprint)
            if cached is not None:
                refined = list(cached)
                stats.subtree_cache_hits += 1
                self.note = "subtree-cache"
            else:
                refined = downward_step(context, node_id, state.mats[node_id], state.down)
                stats.downward_prune_ops += 1
                if cache is not None:
                    stats.subtree_cache_misses += 1
                    cache.put(fingerprint, tuple(refined))
            state.down[node_id] = refined
            if needs_pred_contour(context, node_id):
                context.pred_contours[node_id] = build_pred_contour(context, refined)
        stats.candidates_after_downward[node_id] = len(refined)
        return state


class UpwardPrune(Operator):
    """Procedure 7: refine candidates reachable from parent survivors."""

    def run(self, state: ExecutionState) -> ExecutionState:
        stats, query = state.stats, state.query
        # The paper's Procedure 6 reads candidates a second time during
        # the bottom-up sweep; mirror that in the #input metric.
        stats.input_nodes += sum(stats.candidates_after_downward.values())
        if not state.down[query.root] or any(not state.down[o] for o in query.outputs):
            return state.finish_empty()
        structure_outputs = (
            [o for outputs in (state.output_structures or []) for o in outputs]
            if state.output_structures
            else []
        )
        state.prime_outputs = list(dict.fromkeys(query.outputs + structure_outputs))
        with stats.time_phase("prune_upward"):
            state.prime = compute_prime_subtree(query, state.down, state.prime_outputs)
            state.down = prune_upward(state.context, state.down, state.prime)
        stats.candidates_after_upward = {
            node_id: len(nodes) for node_id, nodes in state.down.items()
        }
        if any(not state.down[o] for o in state.prime_outputs):
            return state.finish_empty()
        return state


class BuildMatchingGraph(Operator):
    """Shrink the prime subtree and assemble the matching graph."""

    def run(self, state: ExecutionState) -> ExecutionState:
        stats, query = state.stats, state.query
        with stats.time_phase("matching_graph"):
            state.fragments = shrink_prime_subtree(
                query, state.prime, state.down, state.prime_outputs
            )
            state.matching_graph = build_matching_graph(state.context, state.down, state.fragments)
            stats.matching_graph_nodes = state.matching_graph.num_vertices
            stats.matching_graph_edges = state.matching_graph.num_edges
        return state


class CollectResults(Operator):
    """Assemble answers from the matching graph (incl. Appendix D)."""

    def run(self, state: ExecutionState) -> ExecutionState:
        stats, query = state.stats, state.query
        with stats.time_phase("collect_results"):
            if state.output_structures:
                answers: dict[int, ResultSet] = {}
                for position, outputs in enumerate(state.output_structures):
                    answers[position] = collect_results(
                        query,
                        state.matching_graph,
                        state.down,
                        outputs=outputs,
                        group_nodes=state.group_nodes,
                    )
                stats.result_count = sum(len(a) for a in answers.values())
                return state.finish(answers)
            results = collect_results(
                query, state.matching_graph, state.down, group_nodes=state.group_nodes
            )
        stats.result_count = len(results)
        return state.finish(results)


class ConstantEmpty(Operator):
    """The constant-empty answer (unsatisfiable plans): no I/O at all."""

    def run(self, state: ExecutionState) -> ExecutionState:
        return state.finish_empty()


def build_gtea_operators(order: tuple[str, ...] | list[str]) -> list[Operator]:
    """The GTEA pipeline for one downward prune order."""
    pipeline: list[Operator] = [CandidateScan()]
    pipeline.extend(DownwardPrune(node_id) for node_id in order)
    pipeline.extend([UpwardPrune(), BuildMatchingGraph(), CollectResults()])
    return pipeline


#: operator class per physical-plan row name (see
#: :class:`repro.plan.physical.PhysicalOperator`).
OPERATOR_CLASSES = {
    "CandidateScan": CandidateScan,
    "DownwardPrune": DownwardPrune,
    "UpwardPrune": UpwardPrune,
    "BuildMatchingGraph": BuildMatchingGraph,
    "CollectResults": CollectResults,
    "ConstantEmpty": ConstantEmpty,
}


def instantiate_operators(specs) -> list[Operator]:
    """Stateful operator instances from a physical plan's operator rows.

    The plan is the single source of truth for the executed pipeline:
    whatever ``PhysicalPlan.operators`` lists (and ``explain()``
    renders) is what runs.  Operators are stateful, so plans — which are
    cached and reused — carry specs, and each execution instantiates
    afresh.
    """
    operators: list[Operator] = []
    for spec in specs:
        cls = OPERATOR_CLASSES[spec.op]
        operators.append(cls(spec.target) if spec.op == "DownwardPrune" else cls())
    return operators


def run_pipeline(
    state: ExecutionState,
    operators: list[Operator],
    *,
    adaptive: bool = False,
) -> ExecutionState:
    """Drive ``operators`` over ``state``, recording per-operator stats.

    With ``adaptive=True`` the contiguous run of :class:`DownwardPrune`
    operators is re-scheduled mid-flight (see module docstring); every
    other operator executes in list order.
    """
    position = 0
    while position < len(operators) and not state.finished:
        operator = operators[position]
        if adaptive and isinstance(operator, DownwardPrune):
            end = position
            while end < len(operators) and isinstance(operators[end], DownwardPrune):
                end += 1
            _run_downward_adaptive(state, operators[position:end])
            position = end
            continue
        _run_operator(state, operator)
        position += 1
    return state


def _run_operator(state: ExecutionState, operator: Operator, note: str = "") -> None:
    """Execute one operator; attribute time, sizes and index probes."""
    before = state.index_snapshot()
    input_size = _operator_input_size(state, operator)
    started = time.perf_counter()
    operator.run(state)
    elapsed = time.perf_counter() - started
    after = state.index_snapshot()
    lookups = entries = 0
    if after is not None:
        # The context may have been built mid-run; probes before its
        # creation baseline belong to earlier executions.
        seen = before if before is not None else state._counter_baseline
        lookups = after["lookups"] - seen["lookups"]
        entries = after["entries_scanned"] - seen["entries_scanned"]
        state.stats.index_lookups += lookups
        state.stats.index_entries += entries
    state.stats.operator_stats.append(
        OperatorStats(
            op=operator.name,
            target=operator.target,
            input_size=input_size,
            output_size=_operator_output_size(state, operator),
            seconds=elapsed,
            index_lookups=lookups,
            index_entries=entries,
            note=" ".join(filter(None, (note, operator.note))),
        )
    )


def _operator_input_size(state: ExecutionState, operator: Operator) -> int:
    if isinstance(operator, CandidateScan):
        return len(state.query.nodes)
    if isinstance(operator, DownwardPrune):
        return len(state.mats.get(operator.target, ()))
    if isinstance(operator, (UpwardPrune, BuildMatchingGraph, CollectResults)):
        return sum(len(nodes) for nodes in state.down.values())
    return 0


def _operator_output_size(state: ExecutionState, operator: Operator) -> int:
    if isinstance(operator, CandidateScan):
        return sum(len(nodes) for nodes in state.mats.values())
    if isinstance(operator, DownwardPrune):
        return len(state.down.get(operator.target, ()))
    if isinstance(operator, (UpwardPrune, BuildMatchingGraph)):
        return sum(len(nodes) for nodes in state.down.values())
    return state.stats.result_count


def _run_downward_adaptive(state: ExecutionState, pending: list[Operator]) -> None:
    """Adaptive schedule over the remaining :class:`DownwardPrune` ops.

    Greedy: among nodes whose children are all refined, run the one
    with the smallest *actual* cost — its fetched candidate count plus
    its children's survivor counts — tie-breaking on node id.  This is
    always a valid children-before-parents order, so results are
    identical to the static schedule; only the visit order (and, via
    the backbone early exit, the number of executed operators) changes.
    """
    query = state.query
    remaining = {op.target: op for op in pending}
    backbone = {node_id for node_id in remaining if query.nodes[node_id].is_backbone}
    while remaining and not state.finished:
        eligible = [
            node_id
            for node_id in remaining
            if all(child in state.down for child in query.children[node_id])
        ]
        node_id = min(eligible, key=lambda n: (_actual_cost(state, n), n))
        _run_operator(state, remaining.pop(node_id), note="adaptive")
        if node_id in backbone and not state.down[node_id]:
            # Every match embeds every backbone node; an empty downward
            # set anywhere on the backbone empties the answer.  The
            # skipped operators are the adaptive pipeline's saving.
            state.stats.operator_stats[-1].note += " early-exit"
            state.finish_empty()
            return


def _actual_cost(state: ExecutionState, node_id: str) -> int:
    """Observed cost of refining ``node_id`` now: own candidates plus
    the survivor sets its refinement reads."""
    return len(state.mats[node_id]) + sum(
        len(state.down[child]) for child in state.query.children[node_id]
    )


def executed_downward_order(stats: EvaluationStats) -> tuple[str, ...]:
    """The downward prune order actually executed, from operator stats."""
    return tuple(
        record.target
        for record in stats.operator_stats
        if record.op == "DownwardPrune" and record.target is not None
    )
