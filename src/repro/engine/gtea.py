"""GTEA — the paper's GTPQ evaluation algorithm (Section 4).

Evaluation runs in four explicit phases (see :mod:`repro.plan`):

1. **normalize** — simplify structural predicates, decide Theorem-1
   satisfiability, shrink the query with Algorithm-1 minimization;
2. **logical plan** — candidate sources, prune obligations, prune order;
3. **physical plan** — reachability index, and an explicit ordered
   *operator list* (:mod:`repro.engine.operators`): CandidateScan →
   DownwardPrune per node → UpwardPrune → BuildMatchingGraph →
   CollectResults, or ConstantEmpty for unsatisfiable plans;
4. **execute** — this module: a thin driver that instantiates the
   plan's operators and runs them through
   :func:`repro.engine.operators.run_pipeline`, optionally with
   adaptive prune reordering (re-sorting the remaining downward
   obligations by actual post-prune set sizes mid-flight).

:class:`repro.engine.parallel.ParallelExecutor` replaces one phase of
this driver with sharded pool execution — the downward prune, where the
time goes; CandidateScan, UpwardPrune, BuildMatchingGraph and
CollectResults always run as the serial operators here.

Usage::

    engine = GTEA(graph)                  # builds the 3-hop index once
    answer = engine.evaluate(query)       # compile + execute
    answer, stats = engine.evaluate_with_stats(query)
    plan = engine.compile(query)          # inspect: plan.explain()
    answer, stats = engine.execute(plan)  # repeated execution
    adaptive = GTEA(graph, adaptive=True) # runtime prune reordering
"""

from __future__ import annotations

from typing import Callable

from ..graph.digraph import DataGraph
from ..plan import CompiledPlan, codegen_refusal, compile_query
from ..query.gtpq import GTPQ
from ..reachability.base import GraphReachability
from ..reachability.factory import build_reachability, resolve_index
from .operators import (
    ExecutionState,
    Operator,
    build_gtea_operators,
    instantiate_operators,
    run_pipeline,
)
from .results import ResultSet
from .stats import EvaluationStats

#: type of the optional ``mat(u)`` source the session layer injects.
CandidateProvider = Callable[[GTPQ, str], list[int]]


class GTEA:
    """The GTPQ evaluation engine.

    The reachability index is built once per graph version and shared
    across queries (indexes are query-independent, unlike the R-join
    index the paper criticizes in Section 4.1).  An index the engine
    built itself is dropped at the first use after the graph's version
    moved; a service passed in as ``reachability=`` is the caller's to
    keep current.
    """

    def __init__(
        self,
        graph: DataGraph,
        index: str = "3hop",
        reachability: GraphReachability | None = None,
        optimize: bool = True,
        adaptive: bool = False,
    ):
        """Args:
            graph: the data graph.
            index: reachability index name, or ``"auto"`` for the
                cost-based choice of the physical planner
                (:func:`repro.plan.cost.choose_index`).  The 3-hop index
                enables the paper's chain/contour pruning fast path; any
                other index runs through the generic set-reachability
                fallback in :mod:`repro.engine.prune`.
            reachability: pre-built reachability service to reuse.
            optimize: run Algorithm-1 minimization when compiling
                queries inline; the simplification and satisfiability
                phases always run.
            adaptive: re-sort the remaining downward prune obligations
                by actual post-prune candidate-set sizes after every
                :class:`~repro.engine.operators.DownwardPrune` step
                (with the backbone-empty early exit), instead of the
                compile-time estimate order.  Answers are identical;
                only the executed operator order (and count, on empty
                answers) changes.
        """
        self.graph = graph
        self._reachability = reachability
        self._index_request = index
        #: graph version of the self-built index; None for a passed-in one.
        self._index_version: int | None = graph.version if reachability is None else None
        self.optimize = optimize
        self.adaptive = adaptive

    @property
    def reachability(self) -> GraphReachability:
        """The reachability service, built lazily on first use.

        Laziness keeps plans that never probe an index — unsatisfiable
        queries — from paying index construction.
        """
        self._drop_stale_index()
        if self._reachability is None:
            self._reachability = build_reachability(
                self.graph, self._index_request
            )
        return self._reachability

    def resolved_index(self) -> str:
        """The concrete index name, resolved without building the index:
        the held service's, or else ``"auto"`` resolved against the
        graph as it is now."""
        self._drop_stale_index()
        if self._reachability is not None:
            return self._reachability.index.name
        return resolve_index(self.graph, self._index_request)

    def _drop_stale_index(self) -> None:
        """Forget a self-built index made for an older graph version."""
        version = self.graph.version
        if self._index_version is not None and self._index_version != version:
            self._reachability = None
            self._index_version = version

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def compile(self, query: GTPQ) -> CompiledPlan:
        """Compile ``query`` against this engine's index and graph."""
        return compile_query(
            self.graph,
            query,
            index=self.resolved_index(),
            minimize=self.optimize,
        )

    # ------------------------------------------------------------------
    # Evaluation entry points
    # ------------------------------------------------------------------
    def evaluate(self, query: GTPQ, group_nodes: tuple[str, ...] = ()) -> ResultSet:
        """Evaluate ``query``; returns tuples aligned with its outputs."""
        results, _ = self.evaluate_with_stats(query, group_nodes=group_nodes)
        return results

    def evaluate_with_stats(
        self,
        query: GTPQ,
        group_nodes: tuple[str, ...] = (),
        output_structures: list[list[str]] | None = None,
        candidate_provider: CandidateProvider | None = None,
        plan: CompiledPlan | None = None,
    ) -> tuple[ResultSet | dict[int, ResultSet], EvaluationStats]:
        """Compile (unless given a plan) and execute, with counters.

        Args:
            query: the query.
            group_nodes: output nodes evaluated with the group operator.
            output_structures: optional list of alternative output-node
                lists (Appendix D); when given, the result is a dict
                mapping the structure's position to its answer set.
            candidate_provider: optional ``(query, node_id) -> mat(u)``
                source for candidate sets; defaults to a fresh
                :func:`~repro.engine.operators.scan_candidates` scan.  The
                session layer injects its shared candidate cache here.
            plan: a pre-compiled plan for ``query`` (the session layer
                caches these); compiled inline when omitted.
        """
        stats = EvaluationStats()
        if plan is None:
            with stats.time_phase("compile"):
                plan = self.compile(query)
        return self.execute(
            plan,
            group_nodes=group_nodes,
            output_structures=output_structures,
            candidate_provider=candidate_provider,
            stats=stats,
        )

    # ------------------------------------------------------------------
    # Plan execution — a thin driver over the plan's operator list
    # ------------------------------------------------------------------
    def execute(
        self,
        plan: CompiledPlan,
        group_nodes: tuple[str, ...] = (),
        output_structures: list[list[str]] | None = None,
        candidate_provider: CandidateProvider | None = None,
        stats: EvaluationStats | None = None,
        codegen=None,
        *,
        subtree_cache=None,
    ) -> tuple[ResultSet | dict[int, ResultSet], EvaluationStats]:
        """Run a compiled plan; see :meth:`evaluate_with_stats` for args.

        Unsatisfiable plans return empty without touching the graph or
        the reachability index (zero candidate fetches, zero lookups).
        Group nodes and alternative output structures are evaluated
        against the *original* query — their node ids may reference
        nodes the rewrite dropped or relocated.

        ``codegen`` optionally carries a specialized
        :class:`~repro.plan.codegen.CompiledPlanFunction` for this plan
        (the session layer caches them per fingerprint).  It is used
        only when it actually applies — the shared applicability test
        (:func:`repro.plan.route.codegen_refusal`: plain GTEA routing,
        no group nodes, no adaptive reordering) plus what only the
        engine knows: no output structures, and an index match — so
        passing one is always safe; anything else falls back to the
        interpreted operator pipeline.

        ``subtree_cache`` optionally carries an
        :class:`~repro.engine.cache.LRUCache` of downward-pruned sets by
        subtree fingerprint, valid for the graph's current version (the
        session owns it and drops it on a version bump): the interpreted
        pipeline's :class:`~repro.engine.operators.DownwardPrune` visits
        read and fill it.
        """
        if stats is None:
            stats = EvaluationStats()

        if (
            codegen is not None
            and output_structures is None
            and codegen.index_name == self.resolved_index()
            and codegen_refusal(
                plan.physical, adaptive=self.adaptive, grouped=bool(group_nodes)
            )
            is None
        ):
            state = ExecutionState(
                self, plan.query, stats, candidate_provider=candidate_provider
            )
            codegen(state)
            return state.answer, stats

        query, operators = self._instantiate(plan, group_nodes, output_structures)
        state = ExecutionState(
            self,
            query,
            stats,
            group_nodes=tuple(group_nodes),
            output_structures=output_structures,
            candidate_provider=candidate_provider,
            subtree_cache=subtree_cache,
        )
        run_pipeline(state, operators, adaptive=self.adaptive)
        return state.answer, stats

    def _instantiate(
        self,
        plan: CompiledPlan,
        group_nodes: tuple[str, ...],
        output_structures: list[list[str]] | None,
    ) -> tuple[GTPQ, list[Operator]]:
        """The query to run and its operator pipeline, from the plan.

        The plan's operator list (``plan.physical.operators``, the one
        ``explain()`` renders) is instantiated directly.  Two documented
        exceptions rebuild the GTEA pipeline instead: group nodes and
        alternative output structures run the *original* query (their
        node ids may reference relocated nodes), and a plan whose
        downward order no longer covers the query's nodes falls back to
        the default bottom-up order.
        """
        if group_nodes or output_structures:
            if plan.unsatisfiable:
                return plan.query, instantiate_operators(plan.physical.operators)
            query = plan.original
            return query, build_gtea_operators(query.bottom_up())
        query = plan.query
        if plan.physical.executor == "gtea" and not plan.physical.covers_query(query):
            return query, build_gtea_operators(query.bottom_up())
        return query, instantiate_operators(plan.physical.operators)

