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
   :func:`repro.engine.operators.run_pipeline`.

Usage::

    engine = GTEA(graph)                  # builds the 3-hop index once
    answer = engine.evaluate(query)       # compile + execute
    answer, stats = engine.evaluate_with_stats(query)
    plan = engine.compile(query)          # inspect: plan.explain()
    answer, stats = engine.execute(plan)  # repeated execution
"""

from __future__ import annotations

from ..graph.digraph import DataGraph
from ..plan import CompiledPlan, compile_query
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
    ):
        """Args:
            graph: the data graph.
            index: reachability index name, or ``"auto"`` (``tc``, the
                descendant closure filled on demand; built by the
                engine itself, it has no budget).  The 3-hop index
                enables the paper's chain/contour pruning fast path; any
                other index runs through the generic set-reachability
                fallback in :mod:`repro.engine.prune`.
            reachability: pre-built reachability service to reuse.
            optimize: run Algorithm-1 minimization when compiling
                queries inline; the simplification and satisfiability
                phases always run.
        """
        self.graph = graph
        self._reachability = reachability
        self._index_request = index
        #: graph version of the self-built index; None for a passed-in one.
        self._index_version: int | None = graph.version if reachability is None else None
        self.optimize = optimize

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
        plan: CompiledPlan | None = None,
    ) -> tuple[ResultSet | dict[int, ResultSet], EvaluationStats]:
        """Compile (unless given a plan) and execute, with counters.

        Args:
            query: the query.
            group_nodes: output nodes evaluated with the group operator.
            output_structures: optional list of alternative output-node
                lists (Appendix D); when given, the result is a dict
                mapping the structure's position to its answer set.
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
        stats: EvaluationStats | None = None,
        *,
        scan_memo=None,
        subtree_cache=None,
    ) -> tuple[ResultSet | dict[int, ResultSet], EvaluationStats]:
        """Run a compiled plan; see :meth:`evaluate_with_stats` for args.

        Unsatisfiable plans return empty without touching the graph or
        the reachability index (zero candidate fetches, zero lookups).
        Group nodes and alternative output structures are evaluated
        against the *original* query — their node ids may reference
        nodes the rewrite dropped or relocated.

        ``subtree_cache`` optionally carries an
        :class:`~repro.engine.cache.LRUCache` of downward-pruned sets by
        subtree fingerprint, valid for the graph's current version (the
        session owns it and drops it on a version bump): the pipeline
        probes it top-down before its first
        :class:`~repro.engine.operators.DownwardPrune`, and the visits
        fill it.  ``scan_memo``, an LRU valid for the same version, keeps
        the candidate scans of predicates without a pinned label
        (:func:`~repro.engine.operators.scan_candidates`).
        """
        if stats is None:
            stats = EvaluationStats()
        query, operators = self._instantiate(plan, group_nodes, output_structures)
        state = ExecutionState(
            self,
            query,
            stats,
            group_nodes=tuple(group_nodes),
            output_structures=output_structures,
            scan_memo=scan_memo,
            subtree_cache=subtree_cache,
        )
        run_pipeline(state, operators)
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

