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
* :class:`RestoreCovered` — re-prune the nodes a subtree-cache hit
  covered whose sets the cache evicted before :class:`UpwardPrune`
  (:func:`run_pipeline` adds it; no plan row names it);
* :class:`UpwardPrune` — Procedure 7 over the prime subtree;
* :class:`BuildMatchingGraph` — shrink + assemble the matching graph;
* :class:`CollectResults` — Algorithm CollectResults (incl. group
  nodes and alternative output structures);
* :class:`ConstantEmpty` — the O(1) answer for unsatisfiable plans.

:func:`run_pipeline` drives an operator list and records one
:class:`OperatorStats` per executed operator (input/output set sizes,
wall time, index probes) into ``EvaluationStats.operator_stats`` — the
observed columns of ``explain()``.

Every backbone node has an image in every match, so the driver ends
the run with the empty answer as soon as a :class:`DownwardPrune` leaves
a backbone node's set empty, and the operators after it never run.

With a subtree cache, :func:`run_pipeline` probes it once from the root
before the first :class:`DownwardPrune`
(:meth:`ExecutionState.probe_subtrees`): a
node whose subtree is cached takes that set, and the visits of its
descendants do not run at all — Procedure 6 decides a node's downward
set from its own subtree alone.  Candidate and survivor sets are
read-only sequences, shared rather than copied: a label posting is the
graph's own tuple, and a cached subtree set is installed as stored.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from typing import Sequence

from ..graph.digraph import DataGraph
from ..query.attribute import AttributePredicate, pinned_label_atom
from ..query.gtpq import GTPQ
from ..query.serialize import subtree_fingerprints
from .matching_graph import build_matching_graph
from .prime import compute_prime_subtree, shrink_prime_subtree
from .prune import MatSets, PruningContext, downward_step, prune_upward
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
    #: query nodes whose visits a subtree-cache hit here made unneeded.
    covers: tuple[str, ...] = ()

    @property
    def label(self) -> str:
        return f"{self.op}({self.target})" if self.target else self.op


class ExecutionState:
    """Mutable state threaded through one pipeline execution.

    Operators read and write these fields; the driver owns timing and
    index-probe attribution.  ``finished`` short-circuits the rest of
    the pipeline (empty intermediate sets, unsatisfiable plans, an empty
    backbone node).
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
        scan_memo=None,
        subtree_cache=None,
        parent_memo=None,
    ):
        self.engine = engine
        self.graph = engine.graph
        self.query = query
        self.stats = stats
        self.group_nodes = group_nodes
        self.output_structures = output_structures
        self.candidate_provider = candidate_provider
        #: optional memo of scans without a pinned label, for
        #: :func:`scan_candidates` (the session's, one graph version's worth).
        self.scan_memo = scan_memo
        #: optional LRU of downward-pruned sets keyed by subtree
        #: fingerprint (the session's, one graph version's worth).
        self.subtree_cache = subtree_cache
        #: optional LRU of PC valuations ``P_{u'}`` by subtree fingerprint
        #: (the session's, one graph version's worth), handed to the
        #: :class:`PruningContext`.
        self.parent_memo = parent_memo
        self._subtree_fingerprints: dict[str, str] | None = None
        #: outcome of :meth:`probe_subtrees` per node it probed: the
        #: cached set on a hit, None on a miss.
        self.probed: dict[str, Sequence[int] | None] = {}
        #: node -> the node whose subtree-cache hit covers it; None until
        #: :meth:`probe_subtrees` has run.
        self.covered: dict[str, str] | None = None
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
        #: the index's ``(lookups, entries_scanned)`` when the running
        #: operator started, or when the context (and so the index) came
        #: into play during it — the zero point of its probe attribution.
        #: The engine's counters are cumulative across executions; without
        #: this baseline the first index-touching operator would be
        #: charged all history.
        self._counter_baseline: tuple[int, int] = (0, 0)

    @property
    def context(self) -> PruningContext:
        """The pruning context, built lazily (first index-touching op).

        Laziness keeps plans that never probe an index — unsatisfiable
        ones — from paying index construction.
        """
        if self._context is None:
            memo = self.parent_memo
            # The context gets the fingerprint dict itself, never a bound
            # method of this state: the state holds the context, and a
            # reference back would leave a cycle per execution.
            self._context = PruningContext(
                self.graph,
                self.query,
                self.engine.reachability,
                memo,
                self.fingerprints if memo is not None else None,
            )
            counters = self._context.reach.counters
            self._counter_baseline = (counters.lookups, counters.entries_scanned)
        return self._context

    @property
    def fingerprints(self) -> dict[str, str]:
        """Subtree-cache key per node of the query this execution runs,
        derived once per execution."""
        if self._subtree_fingerprints is None:
            self._subtree_fingerprints = subtree_fingerprints(self.query)
        return self._subtree_fingerprints

    def probe_subtree(self, node_id: str) -> Sequence[int] | None:
        """One subtree-cache probe for ``node_id``: the cached downward
        set, or None (also without a cache); counted in the stats."""
        cache = self.subtree_cache
        if cache is None:
            return None
        cached = cache.get(self.fingerprints[node_id])
        if cached is None:
            self.stats.subtree_cache_misses += 1
        else:
            self.stats.subtree_cache_hits += 1
        return cached

    def probe_subtrees(self) -> dict[str, str]:
        """Probe the subtree cache once, top-down from the root, and
        return :attr:`covered`.

        A hit ends the walk below it: its descendants are covered, and
        their visits do not run.  A miss walks on into the children.
        Nodes whose fingerprint recurs in the query are not probed here:
        they keep the per-visit probe, so one twin subtree pruned earlier
        in the same execution serves the other.  Group evaluation and
        alternative output structures also keep it (nothing is covered).
        """
        self.covered = covered = {}
        if self.subtree_cache is None or self.group_nodes or self.output_structures:
            return covered
        query, fingerprint = self.query, self.fingerprints.__getitem__
        children = query.children
        counts = Counter(map(fingerprint, query.nodes))
        repeated = {key for key, count in counts.items() if count > 1}
        stack = [query.root]
        while stack:
            node_id = stack.pop()
            if fingerprint(node_id) not in repeated:
                cached = self.probed[node_id] = self.probe_subtree(node_id)
                if cached is not None:
                    below = list(children[node_id])
                    while below:
                        descendant = below.pop()
                        covered[descendant] = node_id
                        below.extend(children[descendant])
                    continue
            stack.extend(children[node_id])
        return covered

    def empty_backbone_hit(self) -> str | None:
        """A backbone node :meth:`probe_subtrees` found cached with an
        empty set, if any."""
        nodes = self.query.nodes
        for node_id, cached in self.probed.items():
            if cached is not None and not cached and nodes[node_id].is_backbone:
                return node_id
        return None

    def prune(self, node_id: str) -> Sequence[int]:
        """Procedure 6 at ``node_id`` over the refined child sets; the
        set is stored in the subtree cache when there is one."""
        refined = downward_step(self.context, node_id, self.mats[node_id], self.down)
        self.down[node_id] = refined
        self.stats.downward_prune_ops += 1
        if self.subtree_cache is not None:
            self.subtree_cache.put(self.fingerprints[node_id], refined)
        return refined

    def restore_covered(self) -> tuple[str, ...]:
        """Give every covered node whose set is still in the subtree
        cache that set back (a ``peek``), and return the others — evicted
        since the probe — children first: :class:`RestoreCovered` prunes
        them."""
        cache, down, evicted = self.subtree_cache, self.down, []
        for node_id in self.query.bottom_up():
            if node_id not in self.covered:
                continue
            cached = cache.peek(self.fingerprints[node_id])
            if cached is None:
                evicted.append(node_id)
            else:
                down[node_id] = cached
        return tuple(evicted)

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
    #: nodes a run's subtree-cache hit covers (:class:`DownwardPrune`).
    covers: tuple[str, ...] = ()

    @property
    def name(self) -> str:
        return type(self).__name__

    def run(self, state: ExecutionState) -> ExecutionState:  # pragma: no cover
        raise NotImplementedError

    def __repr__(self) -> str:
        suffix = f"({self.target})" if self.target else ""
        return f"{self.name}{suffix}"


def scan_candidates(graph: DataGraph, predicate: AttributePredicate, memo=None) -> Sequence[int]:
    """``mat(u)``: the nodes satisfying ``predicate``, ascending.

    A pinned label (:func:`pinned_label_atom`) reads the graph's label
    posting: alone, it *is* the answer — the stored tuple, not a copy;
    with other atoms, only those are checked, against the live attribute
    dicts (:meth:`~repro.graph.digraph.DataGraph.attrs_of`).  Without a
    pinned label every node is checked, so ``memo`` — an optional
    :class:`~repro.engine.cache.LRUCache` valid for the graph's current
    version — keeps those scans by the predicate's canonical text.  The
    oracle's :func:`~repro.query.naive.candidate_nodes` keeps its own
    per-node check of every atom, so it checks this scan independently.
    """
    atoms = predicate.atoms
    position = pinned_label_atom(predicate)
    if position is None:
        if memo is None:
            return _checked(graph, graph.nodes(), predicate)
        key = predicate.canonical()[1]
        nodes = memo.get(key)
        if nodes is None:
            nodes = _checked(graph, graph.nodes(), predicate)
            memo.put(key, nodes)
        return nodes
    pool = graph.nodes_with_label(atoms[position][2])
    if len(atoms) == 1:
        return pool
    return _checked(graph, pool, AttributePredicate(atoms[:position] + atoms[position + 1 :]))


def _checked(graph: DataGraph, pool: Sequence[int], rest: AttributePredicate) -> tuple[int, ...]:
    """The members of ``pool`` whose attributes satisfy ``rest``."""
    if not rest.atoms:
        return tuple(pool)
    return tuple(compress(pool, map(rest.matches, graph.attrs_of(pool))))


class CandidateScan(Operator):
    """Fetch the initial ``mat(u)`` of every query node."""

    def run(self, state: ExecutionState) -> ExecutionState:
        stats, query, provider = state.stats, state.query, state.candidate_provider
        for node_id in query.nodes:
            if provider is not None:
                nodes = provider(query, node_id)
            else:
                nodes = scan_candidates(state.graph, query.attribute(node_id), state.scan_memo)
            # Read-only from here on: a posting is kept, not copied.
            state.mats[node_id] = nodes
            stats.candidates_initial[node_id] = len(nodes)
        stats.input_nodes = sum(stats.candidates_initial.values())
        if not state.mats[query.root]:
            return state.finish_empty()
        return state


class DownwardPrune(Operator):
    """One node visit of Procedure 6, fed with refined child sets.

    The downward set of a node depends only on the subtree rooted at it,
    so with a subtree cache the visit takes the set an earlier execution
    pruned at this graph version when the subtree is cached — no prune
    op, no index probe — and stores what it prunes otherwise.  The probe
    was made by :meth:`ExecutionState.probe_subtrees` when
    :func:`run_pipeline` ran it, and is made here otherwise.
    """

    def __init__(self, target: str):
        self.target = target

    def run(self, state: ExecutionState) -> ExecutionState:
        node_id = self.target
        if node_id in state.probed:
            cached = state.probed[node_id]
        else:
            cached = state.probe_subtree(node_id)
        if cached is None:
            refined = state.prune(node_id)
        else:
            refined = state.down[node_id] = cached
            self.note = "subtree-cache"
            covered = state.covered or {}
            self.covers = tuple(node for node, hit in covered.items() if hit == node_id)
        state.stats.candidates_after_downward[node_id] = len(refined)
        return state


class RestoreCovered(Operator):
    """Re-prune, children first, the covered nodes whose sets the subtree
    cache evicted between its probe and :class:`UpwardPrune` (Procedure 6
    at each, over refined child sets).  Run only when one was evicted."""

    def __init__(self, nodes: tuple[str, ...]):
        self.nodes = nodes

    def run(self, state: ExecutionState) -> ExecutionState:
        for node_id in self.nodes:
            state.prune(node_id)
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
        state.fragments = shrink_prime_subtree(query, state.prime, state.down, state.prime_outputs)
        state.matching_graph = build_matching_graph(state.context, state.down, state.fragments)
        stats.matching_graph_nodes = state.matching_graph.num_vertices
        stats.matching_graph_edges = state.matching_graph.num_edges
        return state


class CollectResults(Operator):
    """Assemble answers from the matching graph (incl. Appendix D)."""

    def run(self, state: ExecutionState) -> ExecutionState:
        stats, query = state.stats, state.query
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


def run_pipeline(state: ExecutionState, operators: list[Operator]) -> ExecutionState:
    """Drive ``operators`` over ``state`` in list order, recording
    per-operator stats; stop at the first operator that finishes it, or
    after a :class:`DownwardPrune` that empties a backbone node (its
    record is tagged ``early-exit``).  Before the first
    :class:`DownwardPrune` the subtree cache is probed top-down, and the
    visits it covers are skipped: no record, no count; their sets are
    read back before :class:`UpwardPrune`, and a :class:`RestoreCovered`
    record prunes those the cache evicted meanwhile.  A backbone node the
    probe finds empty is visited first, and so ends the run before
    anything is pruned."""
    query = state.query
    for operator in operators:
        if isinstance(operator, DownwardPrune):
            covered = state.covered
            if covered is None:
                covered = state.probe_subtrees()
                # A backbone node whose cached set is empty decides the
                # (empty) answer now: its visit runs first and ends the run.
                empty = state.empty_backbone_hit()
                if empty is not None:
                    operator = DownwardPrune(empty)
            if operator.target in covered:
                continue
        elif state.covered and isinstance(operator, UpwardPrune):
            evicted = state.restore_covered()
            if evicted:
                _run_operator(state, RestoreCovered(evicted))
        _run_operator(state, operator)
        if state.finished:
            break
        if (
            isinstance(operator, DownwardPrune)
            and not state.down[operator.target]
            and query.nodes[operator.target].is_backbone
        ):
            record = state.stats.operator_stats[-1]
            record.note = f"{record.note} early-exit".lstrip()
            state.finish_empty()
            break
    return state


def _run_operator(state: ExecutionState, operator: Operator) -> None:
    """Execute one operator; attribute time, sizes and index probes."""
    if state._context is not None:
        counters = state._context.reach.counters
        state._counter_baseline = (counters.lookups, counters.entries_scanned)
    input_size = _operator_input_size(state, operator)
    started = time.perf_counter()
    operator.run(state)
    elapsed = time.perf_counter() - started
    lookups = entries = 0
    if state._context is not None:
        counters = state._context.reach.counters
        seen_lookups, seen_entries = state._counter_baseline
        lookups = counters.lookups - seen_lookups
        entries = counters.entries_scanned - seen_entries
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
            note=operator.note,
            covers=operator.covers,
        )
    )


def _operator_input_size(state: ExecutionState, operator: Operator) -> int:
    if isinstance(operator, CandidateScan):
        return len(state.query.nodes)
    if isinstance(operator, DownwardPrune):
        return len(state.mats.get(operator.target, ()))
    if isinstance(operator, RestoreCovered):
        return sum(len(state.mats[node_id]) for node_id in operator.nodes)
    if isinstance(operator, (UpwardPrune, BuildMatchingGraph, CollectResults)):
        return sum(len(nodes) for nodes in state.down.values())
    return 0


def _operator_output_size(state: ExecutionState, operator: Operator) -> int:
    if isinstance(operator, CandidateScan):
        return sum(len(nodes) for nodes in state.mats.values())
    if isinstance(operator, DownwardPrune):
        return len(state.down.get(operator.target, ()))
    if isinstance(operator, RestoreCovered):
        return sum(len(state.down[node_id]) for node_id in operator.nodes)
    if isinstance(operator, (UpwardPrune, BuildMatchingGraph)):
        return sum(len(nodes) for nodes in state.down.values())
    return state.stats.result_count


def executed_downward_order(stats: EvaluationStats) -> tuple[str, ...]:
    """The downward prune order actually executed, from operator stats
    (the visits a subtree-cache hit covered have no record)."""
    return tuple(
        record.target
        for record in stats.operator_stats
        if record.op == "DownwardPrune" and record.target is not None
    )
