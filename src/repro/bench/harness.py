"""Benchmark harness: pre-built algorithm suites and table printing.

Timing discipline follows the paper: reachability indexes and interval
labelings are built once per dataset *outside* the measured region (they
are query-independent), while everything an algorithm does per query —
including TwigStackD's pre-filtering sweeps and HGJoin+'s plan sweep — is
measured.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from ..baselines import (
    CrossAwareTreeSolver,
    DecomposingEvaluator,
    HGJoinPlus,
    HGJoinStar,
    TreeDecomposedEvaluator,
    Twig2Stack,
    TwigStack,
    TwigStackD,
    decompose_at_cross_edges,
)
from ..engine import GTEA, QuerySession
from ..engine.stats import EvaluationStats
from ..graph.digraph import DataGraph
from ..query.gtpq import GTPQ


@dataclass
class Measurement:
    """One algorithm run: answer, wall time, collected statistics."""

    algorithm: str
    seconds: float
    result_count: int
    stats: EvaluationStats | None = None
    answer: set = field(default_factory=set, repr=False)

    @property
    def millis(self) -> float:
        return self.seconds * 1e3


class AlgorithmSuite:
    """All evaluators over one dataset, index structures pre-built.

    Args:
        graph: the data graph.
        forest_edges: the document-tree edges (enables the tree-algorithm
            members; omit for general DAGs like arXiv).
        cross_children_of: per-query callable returning the reference
            children at which tree algorithms must split the query.
    """

    def __init__(
        self,
        graph: DataGraph,
        forest_edges: set[tuple[int, int]] | None = None,
        cross_children_of: Callable[[GTPQ], set[str]] | None = None,
    ):
        self.graph = graph
        # Paper fidelity: the experiment figures measure the raw GTEA
        # pipeline; Algorithm-1 minimization is a separate contribution
        # (benchmarked in benchmarks/bench_planner.py), so the suite
        # compiles without it.  Graph statistics and the (lazily built)
        # index are query-independent planner inputs — forced here,
        # outside the measured region.
        self.gtea = GTEA(graph, optimize=False)
        self.gtea.graph_statistics()
        self.gtea.reachability
        self.twigstackd = TwigStackD(graph)
        self.hgjoin_plus = HGJoinPlus(graph)
        self.hgjoin_star = HGJoinStar(graph)
        self.cross_children_of = cross_children_of or (lambda query: set())
        self.tree_runners: dict[str, TreeDecomposedEvaluator] = {}
        if forest_edges is not None:
            self.tree_runners["TwigStack"] = TreeDecomposedEvaluator(
                graph, TwigStack, forest_edges=forest_edges
            )
            self.tree_runners["Twig2Stack"] = TreeDecomposedEvaluator(
                graph, Twig2Stack, forest_edges=forest_edges
            )

    # ------------------------------------------------------------------
    def algorithms(self) -> list[str]:
        return ["GTEA", "TwigStackD", "HGJoin+", "HGJoin*", *self.tree_runners]

    def run(self, algorithm: str, query: GTPQ) -> Measurement:
        """Evaluate ``query`` with ``algorithm`` and time it.

        Conjunctive queries run natively everywhere; GTPQs with logical
        operators run natively on GTEA and through the decompose-and-merge
        wrapper on the baselines (the paper's Appendix C.2 set-up).
        """
        conjunctive = query.is_conjunctive()
        if algorithm == "GTEA":
            # Compile outside the timed region (the session layer caches
            # plans, so serving never recompiles a repeated query), and
            # pin the executor: this row must measure GTEA itself even on
            # workloads the cost model would hand to the baseline.
            plan = self.gtea.compile(query)
            if plan.physical.executor != "gtea":
                plan = replace(
                    plan, physical=replace(plan.physical, executor="gtea")
                )
            runner = lambda: self.gtea.evaluate_with_stats(query, plan=plan)
        elif algorithm in ("TwigStackD", "HGJoin+", "HGJoin*"):
            evaluator = {
                "TwigStackD": self.twigstackd,
                "HGJoin+": self.hgjoin_plus,
                "HGJoin*": self.hgjoin_star,
            }[algorithm]
            if conjunctive:
                runner = lambda: evaluator.evaluate_with_stats(query)
            elif algorithm == "TwigStackD":
                wrapper = DecomposingEvaluator(evaluator)
                runner = lambda: wrapper.evaluate_with_stats(query)
            else:
                raise ValueError(f"{algorithm} cannot evaluate GTPQs")
        elif algorithm in self.tree_runners:
            tree_runner = self.tree_runners[algorithm]
            crosses = self.cross_children_of(query)
            if conjunctive:
                decomposed = decompose_at_cross_edges(query, crosses)
                runner = lambda: tree_runner.evaluate_with_stats(decomposed)
            else:
                solver = CrossAwareTreeSolver(tree_runner, crosses)
                wrapper = DecomposingEvaluator(solver)
                runner = lambda: wrapper.evaluate_with_stats(query)
        else:
            raise ValueError(f"unknown algorithm {algorithm!r}")
        started = time.perf_counter()
        answer, stats = runner()
        elapsed = time.perf_counter() - started
        if algorithm == "HGJoin+" and "best_plan" in stats.phase_seconds:
            # Paper convention: report the best plan's time only.
            elapsed = stats.phase_seconds["best_plan"] + (
                elapsed - stats.phase_seconds["all_plans"]
            )
        if isinstance(answer, dict):  # multi-output-structure result
            count = sum(len(a) for a in answer.values())
            flat: set = set()
        else:
            count = len(answer)
            flat = answer
        return Measurement(algorithm, elapsed, count, stats, flat)


@dataclass
class WarmColdMeasurement:
    """Warm-vs-cold comparison of a repeated workload on one graph.

    ``cold_seconds`` is the wall time of serving the workload through a
    session whose result cache is disabled (plan/candidate caches start
    empty too), ``warm_seconds`` the time of the *second* pass over an
    identical session with every cache enabled and primed by a first
    pass.  ``stats`` is the aggregate of the warm pass, so the cache
    hit counters quantify where the speedup comes from.
    """

    cold_seconds: float
    warm_seconds: float
    queries: int
    stats: EvaluationStats

    @property
    def speedup(self) -> float:
        return self.cold_seconds / self.warm_seconds if self.warm_seconds else 0.0

    def row(self) -> dict[str, float]:
        return {
            "queries": self.queries,
            "cold_ms": self.cold_seconds * 1e3,
            "warm_ms": self.warm_seconds * 1e3,
            "speedup": self.speedup,
            "result_hits": self.stats.result_cache_hits,
            "candidate_hits": self.stats.candidate_cache_hits,
            "plan_hits": self.stats.plan_cache_hits,
        }


def measure_warm_cold(
    graph: DataGraph,
    queries: list[GTPQ],
    index: str = "auto",
) -> WarmColdMeasurement:
    """Serve ``queries`` cold and warm through :class:`QuerySession`.

    Index construction happens outside both measured regions (indexes are
    query-independent, following the paper's timing discipline); the
    comparison isolates what the session's caches buy on repeated
    traffic.
    """
    cold_session = QuerySession(
        graph,
        index=index,
        plan_cache_size=0,
        candidate_cache_size=0,
        result_cache_size=0,
    )
    # Build the index and planner statistics outside the measured region
    # (both are query-independent, following the paper's discipline).
    cold_session.engine()
    cold_session.graph_statistics()
    started = time.perf_counter()
    for query in queries:
        cold_session.evaluate(query)
    cold_seconds = time.perf_counter() - started

    warm_session = QuerySession(graph, index=index)
    warm_session.engine()
    warm_session.graph_statistics()
    warm_session.evaluate_many(queries)  # priming pass
    started = time.perf_counter()
    batch = warm_session.evaluate_many(queries)
    warm_seconds = time.perf_counter() - started
    return WarmColdMeasurement(
        cold_seconds=cold_seconds,
        warm_seconds=warm_seconds,
        queries=len(queries),
        stats=batch.stats,
    )


def format_table(
    title: str, columns: list[str], rows: list[list[Any]]
) -> str:
    """Render an aligned text table (the bench reports' output format)."""
    header = [str(c) for c in columns]
    body = [[_fmt(cell) for cell in row] for row in rows]
    widths = [
        max(len(header[i]), *(len(row[i]) for row in body)) if body else len(header[i])
        for i in range(len(header))
    ]
    lines = [title, "-" * len(title)]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
    for row in body:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)


def _fmt(cell: Any) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)


def mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


@dataclass
class AdaptiveMeasurement:
    """Static-vs-adaptive executor comparison on one workload.

    Every query is compiled once; the same plans run through the static
    operator pipeline (compile-time prune order) and the adaptive one
    (runtime reordering + backbone-empty early exit).  Answers are
    compared exactly; ``mismatches`` must be zero.
    """

    queries: int
    prune_ops_static: int
    prune_ops_adaptive: int
    reordered_queries: int  #: executed order differs from the static one
    early_exits: int  #: adaptive runs that skipped downward operators
    static_seconds: float
    adaptive_seconds: float
    mismatches: int

    @property
    def prune_ops_saved(self) -> float:
        if not self.prune_ops_static:
            return 0.0
        return 1.0 - self.prune_ops_adaptive / self.prune_ops_static

    def row(self) -> dict[str, float]:
        return {
            "queries": self.queries,
            "ops_static": self.prune_ops_static,
            "ops_adaptive": self.prune_ops_adaptive,
            "ops_saved": round(self.prune_ops_saved, 3),
            "reordered": self.reordered_queries,
            "early_exits": self.early_exits,
            "static_ms": round(self.static_seconds * 1e3, 2),
            "adaptive_ms": round(self.adaptive_seconds * 1e3, 2),
        }


def measure_adaptive(graph: DataGraph, queries: list[GTPQ]) -> AdaptiveMeasurement:
    """Run ``queries`` through both executors and compare prune work.

    Plans are compiled once outside both measured regions (the executors
    share them), following the paper's timing discipline.
    """
    from ..engine.operators import executed_downward_order

    engine = GTEA(graph, index="auto")
    engine.reachability  # build outside the measured regions
    plans = [engine.compile(query) for query in queries]

    ops_static = ops_adaptive = reordered = early_exits = mismatches = 0
    static_seconds = adaptive_seconds = 0.0
    for query, plan in zip(queries, plans):
        started = time.perf_counter()
        static_results, static_stats = engine.execute(plan, adaptive=False)
        static_seconds += time.perf_counter() - started

        started = time.perf_counter()
        adaptive_results, adaptive_stats = engine.execute(plan, adaptive=True)
        adaptive_seconds += time.perf_counter() - started

        mismatches += static_results != adaptive_results
        ops_static += static_stats.downward_prune_ops
        ops_adaptive += adaptive_stats.downward_prune_ops
        static_order = executed_downward_order(static_stats)
        adaptive_order = executed_downward_order(adaptive_stats)
        reordered += adaptive_order != static_order[: len(adaptive_order)]
        early_exits += len(adaptive_order) < len(static_order)
    return AdaptiveMeasurement(
        queries=len(queries),
        prune_ops_static=ops_static,
        prune_ops_adaptive=ops_adaptive,
        reordered_queries=reordered,
        early_exits=early_exits,
        static_seconds=static_seconds,
        adaptive_seconds=adaptive_seconds,
        mismatches=mismatches,
    )


@dataclass
class ParallelScalePoint:
    """One worker count of a :class:`ParallelMeasurement` sweep."""

    workers: int
    prune_seconds: float  #: summed ``prune_downward`` phase time.
    wall_seconds: float  #: end-to-end workload wall time.
    shard_tasks: int  #: downward pool tasks dispatched across the workload.
    candidates_seconds: float = 0.0  #: summed ``candidates`` phase time.
    upward_seconds: float = 0.0  #: summed ``prune_upward`` phase time.
    upward_tasks: int = 0  #: upward pool tasks dispatched.
    steals: int = 0  #: tasks drained from the pending deque by completions.


@dataclass
class ParallelMeasurement:
    """End-to-end scaling of the sharded executor on one workload.

    The same compiled plans run through a
    :class:`~repro.engine.parallel.ParallelExecutor` at each worker
    count (shards = workers) with the full sharded pipeline — sharded
    downward *and* upward prune, overlapped candidate scan, work
    stealing.  Every worker count is compared against the serial
    engine: answers exactly, per-node survivor sets after both prune
    phases, and the downward prune-op count — ``mismatches`` and
    ``survivor_mismatches`` must both be zero (the determinism contract
    of :mod:`repro.graph.partition`).
    """

    queries: int
    backend: str
    strategy: str
    points: list[ParallelScalePoint]
    mismatches: int
    survivor_mismatches: int

    def speedup(self, workers: int) -> float:
        """Prune-phase speedup of ``workers`` over the 1-worker run."""
        base = next(p for p in self.points if p.workers == 1)
        point = next(p for p in self.points if p.workers == workers)
        return base.prune_seconds / point.prune_seconds if point.prune_seconds else 0.0

    def wall_speedup(self, workers: int) -> float:
        """End-to-end wall speedup of ``workers`` over the 1-worker run."""
        base = next(p for p in self.points if p.workers == 1)
        point = next(p for p in self.points if p.workers == workers)
        return base.wall_seconds / point.wall_seconds if point.wall_seconds else 0.0

    def rows(self) -> list[dict[str, float]]:
        prune_base = self.points[0].prune_seconds if self.points else 0.0
        wall_base = self.points[0].wall_seconds if self.points else 0.0
        return [
            {
                "workers": point.workers,
                "scan_ms": round(point.candidates_seconds * 1e3, 2),
                "prune_ms": round(point.prune_seconds * 1e3, 2),
                "upward_ms": round(point.upward_seconds * 1e3, 2),
                "wall_ms": round(point.wall_seconds * 1e3, 2),
                "speedup": round(prune_base / point.prune_seconds, 3)
                if point.prune_seconds
                else 0.0,
                "wall_speedup": round(wall_base / point.wall_seconds, 3)
                if point.wall_seconds
                else 0.0,
                "shard_tasks": point.shard_tasks,
                "upward_tasks": point.upward_tasks,
                "steals": point.steals,
            }
            for point in self.points
        ]


def measure_parallel(
    graph: DataGraph,
    queries: list[GTPQ],
    worker_counts: tuple[int, ...] = (1, 2, 4),
    backend: str = "auto",
    strategy: str = "hybrid",
) -> ParallelMeasurement:
    """Sweep worker counts over ``queries`` with full sharded execution.

    Plans are compiled and the index is built outside every measured
    region; each worker count gets one unmeasured warmup pass (pool
    spin-up, worker-side query caches) before its timed pass.  The
    ``"hybrid"`` strategy is the default: it keeps each shard's
    candidates on few 3-hop chains (range routing, cheap chain scans)
    unless a candidate set is skewed onto few ranges, where it balances
    with hash routing instead.
    """
    from ..engine.parallel import ParallelExecutor

    engine = GTEA(graph, index="auto")
    engine.reachability  # build outside the measured regions
    plans = [engine.compile(query) for query in queries]
    reference = []
    for plan in plans:
        results, stats = engine.execute(plan)
        reference.append(
            (
                results,
                dict(stats.candidates_after_downward),
                dict(stats.candidates_after_upward),
                stats.downward_prune_ops,
            )
        )

    mismatches = survivor_mismatches = 0
    points: list[ParallelScalePoint] = []
    resolved_backend = backend
    for workers in worker_counts:
        executor = ParallelExecutor(
            engine, workers, backend=backend, shards=workers,
            strategy=strategy, min_shard_size=1,
        )
        try:
            resolved_backend = executor.backend
            for plan in plans:  # warmup: pool spin-up, worker caches
                executor.execute(plan)
            point = ParallelScalePoint(workers=workers, prune_seconds=0.0, wall_seconds=0.0, shard_tasks=0)
            started = time.perf_counter()
            for plan, (expected, down, up, prune_ops) in zip(plans, reference):
                results, stats = executor.execute(plan)
                mismatches += results != expected
                survivor_mismatches += (
                    dict(stats.candidates_after_downward) != down
                    or dict(stats.candidates_after_upward) != up
                    or stats.downward_prune_ops != prune_ops
                )
                point.candidates_seconds += stats.phase_seconds.get("candidates", 0.0)
                point.prune_seconds += stats.phase_seconds.get("prune_downward", 0.0)
                point.upward_seconds += stats.phase_seconds.get("prune_upward", 0.0)
                point.shard_tasks += stats.parallel_shard_tasks
                point.upward_tasks += stats.parallel_upward_tasks
                point.steals += stats.parallel_steals
            point.wall_seconds = time.perf_counter() - started
        finally:
            executor.close()
        points.append(point)
    return ParallelMeasurement(
        queries=len(queries),
        backend=resolved_backend,
        strategy=strategy,
        points=points,
        mismatches=mismatches,
        survivor_mismatches=survivor_mismatches,
    )


@dataclass
class CodegenQueryPoint:
    """One query's interpreted-vs-codegen warm comparison."""

    name: str
    interpreted_ms: float
    codegen_ms: float
    results: int

    @property
    def speedup(self) -> float:
        return self.interpreted_ms / self.codegen_ms if self.codegen_ms else 0.0


@dataclass
class CodegenMeasurement:
    """Interpreted-pipeline vs specialized-function comparison.

    Warm, engine-level: plans are compiled once and specialized once
    outside both measured regions, then the same plans run through
    ``GTEA.execute`` with and without their compiled function.  Answers
    are compared exactly per round; ``mismatches`` must be zero, and
    ``uncompiled`` counts plans the backend could not specialize
    (expected zero on the planner workload).
    """

    points: list[CodegenQueryPoint]
    mismatches: int
    uncompiled: int

    @property
    def speedup(self) -> float:
        """Aggregate warm speedup: total interpreted time / total codegen."""
        codegen_ms = sum(p.codegen_ms for p in self.points)
        if not codegen_ms:
            return 0.0
        return sum(p.interpreted_ms for p in self.points) / codegen_ms

    def rows(self) -> list[dict[str, float]]:
        return [
            {
                "query": point.name,
                "interpreted_ms": round(point.interpreted_ms, 3),
                "codegen_ms": round(point.codegen_ms, 3),
                "speedup": round(point.speedup, 2),
                "results": point.results,
            }
            for point in self.points
        ]


def _trimmed_mean_ms(samples: list[float]) -> float:
    """Mean in ms after dropping the min and max sample (noise guard)."""
    ordered = sorted(samples)
    if len(ordered) > 3:
        ordered = ordered[1:-1]
    return 1e3 * sum(ordered) / len(ordered)


def measure_codegen(
    graph: DataGraph,
    queries: list[tuple[str, GTPQ]],
    rounds: int = 7,
) -> CodegenMeasurement:
    """Compare warm plan execution with and without plan codegen.

    Plans are compiled once and specialized once outside both measured
    regions (the paper's timing discipline: per-query work only), with
    one unmeasured warmup execution per arm, then ``rounds`` timed
    executions each; per-query times are min/max trimmed means.  This is
    exactly what a warm ``QuerySession(codegen=...)`` executes per
    evaluation once its caches hold the plan and the function.
    """
    from ..plan.codegen import CodegenError, compile_plan

    engine = GTEA(graph, index="3hop")
    engine.reachability  # build outside the measured regions

    mismatches = uncompiled = 0
    points: list[CodegenQueryPoint] = []
    for name, query in queries:
        plan = engine.compile(query)
        try:
            fn = compile_plan(plan)
        except CodegenError:
            uncompiled += 1
            fn = None
        expected, _ = engine.execute(plan)  # warmup + reference
        if fn is not None:
            engine.execute(plan, codegen=fn)  # warmup the specialized arm
        interpreted_samples: list[float] = []
        codegen_samples: list[float] = []
        for _ in range(rounds):
            started = time.perf_counter()
            base_answer, _ = engine.execute(plan)
            interpreted_samples.append(time.perf_counter() - started)
            started = time.perf_counter()
            answer, _ = engine.execute(plan, codegen=fn)
            codegen_samples.append(time.perf_counter() - started)
            mismatches += answer != expected
            mismatches += base_answer != expected
        points.append(
            CodegenQueryPoint(
                name=name,
                interpreted_ms=_trimmed_mean_ms(interpreted_samples),
                codegen_ms=_trimmed_mean_ms(codegen_samples),
                results=len(expected),
            )
        )
    return CodegenMeasurement(points=points, mismatches=mismatches, uncompiled=uncompiled)


# ----------------------------------------------------------------------
# Per-query index choice (partial vs full builds)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class IndexChoicePoint:
    """Cold first-answer times of one query under both index arms."""

    name: str
    partial_ms: float  #: cold evaluation through per-query costing
    full_ms: float  #: cold evaluation with the ladder's full index pinned
    results: int
    partial_builds: int
    partial_hits: int
    footprint: int | None

    @property
    def speedup(self) -> float:
        return self.full_ms / self.partial_ms if self.partial_ms else 0.0


@dataclass
class IndexChoiceMeasurement:
    """Result of :func:`measure_index_choice`."""

    points: list[IndexChoicePoint]
    full_index: str
    mismatches: int = 0
    fallbacks: int = 0

    @property
    def speedup(self) -> float:
        """Aggregate cold first-answer speedup (total full over partial)."""
        partial_ms = sum(p.partial_ms for p in self.points)
        if partial_ms == 0.0:
            return 0.0
        return sum(p.full_ms for p in self.points) / partial_ms

    @property
    def partial_picked(self) -> int:
        """Queries whose cold run actually built or reused a partial index."""
        return sum(1 for p in self.points if p.partial_builds or p.partial_hits)

    def rows(self) -> list[dict[str, float]]:
        return [
            {
                "query": point.name,
                "full_ms": round(point.full_ms, 3),
                "partial_ms": round(point.partial_ms, 3),
                "speedup": round(point.speedup, 2),
                "footprint": point.footprint or 0,
                "results": point.results,
            }
            for point in self.points
        ]


def measure_index_choice(
    graph: DataGraph,
    queries: list[tuple[str, GTPQ]],
    rounds: int = 3,
) -> IndexChoiceMeasurement:
    """Cold first answers: per-query partial indexes vs a full build.

    Each round evaluates every query on *fresh* sessions — one letting
    the per-query costing pick its arm (and pay any partial build), one
    pinned to the graph-shape ladder's full index (paying the full
    build) — so both timings are true cold first answers including index
    construction.  Per-query times are min/max trimmed means; answers
    are asserted identical across arms every round.
    """
    from ..graph.stats import graph_stats
    from ..plan import choose_index

    full_name = choose_index(graph_stats(graph))
    mismatches = fallbacks = 0
    points: list[IndexChoicePoint] = []
    for name, query in queries:
        partial_samples: list[float] = []
        full_samples: list[float] = []
        expected = None
        builds = hits = 0
        footprint = None
        for _ in range(rounds):
            session = QuerySession(graph)
            started = time.perf_counter()
            answer, stats = session.evaluate_with_stats(query)
            partial_samples.append(time.perf_counter() - started)
            builds += stats.partial_builds
            hits += stats.partial_hits
            fallbacks += stats.partial_fallbacks
            physical = session._plan_for(query).compiled.physical
            if physical.footprint_estimate is not None:
                footprint = physical.footprint_estimate
            session.close()

            pinned = QuerySession(graph, index=full_name)
            started = time.perf_counter()
            full_answer = pinned.evaluate(query)
            full_samples.append(time.perf_counter() - started)
            pinned.close()

            if expected is None:
                expected = answer
            mismatches += answer != expected
            mismatches += full_answer != expected
        points.append(
            IndexChoicePoint(
                name=name,
                partial_ms=_trimmed_mean_ms(partial_samples),
                full_ms=_trimmed_mean_ms(full_samples),
                results=len(expected),
                partial_builds=builds,
                partial_hits=hits,
                footprint=footprint,
            )
        )
    return IndexChoiceMeasurement(
        points=points, full_index=full_name, mismatches=mismatches, fallbacks=fallbacks
    )
