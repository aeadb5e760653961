"""Sharded downward prune across a worker pool.

The downward prune (Procedure 6, :func:`repro.engine.prune.downward_step`)
is where a GTPQ evaluation spends its time, and it is the one phase with
per-candidate independence: once a node's children are refined, ``fext``
is decided for each candidate on its own, and nodes on disjoint subtrees
have no data dependencies at all.  :class:`ParallelExecutor` shards that
phase and nothing else:

1. the serial :class:`~repro.engine.operators.CandidateScan` operator
   fetches every ``mat(u)`` (its empty-root exit included);
2. the **downward frontier** dispatches every node whose children are
   refined.  A node's candidate list is cut by :func:`split_candidates`
   into at most ``workers`` contiguous slices of even size, each slice is
   refined as one pool task, and the survivor list is the slice results
   *concatenated in slice order*.  Every filter of the prune keeps its
   input order, so the concatenation is byte-identical to the serial
   pass for any input order — no sort, no routing table.  Leaf nodes and
   empty candidate sets are refined inline (O(set size), no index work);
   an empty backbone survivor set ends the evaluation at once, like the
   adaptive scheduler does;
3. the serial :class:`~repro.engine.operators.UpwardPrune`,
   :class:`~repro.engine.operators.BuildMatchingGraph` and
   :class:`~repro.engine.operators.CollectResults` operators finish the
   plan — the very operators the engine runs, so their probe counts and
   records equal the serial engine's.

Tasks go straight to the pool, which runs at most ``workers`` at once and
hands the next queued slice to the first idle worker.

Two backends: ``"process"`` (a fork-started
:class:`~concurrent.futures.ProcessPoolExecutor`; workers inherit the
graph and the built reachability index by memory, tasks ship only the
query JSON, the candidate slice, the refined child sets and the contour
data) and ``"serial"`` (the same dispatch and fold with inline futures —
the deterministic reference the oracle suites compare against).
``"auto"`` is ``"process"`` where fork exists, else ``"serial"``.  A pool
that loses a worker is discarded and the evaluation finishes its slices
inline; the next evaluation forks a fresh pool.

Index-probe attribution is exact (per-task counter deltas; process
workers are single-threaded).  Downward probe *counts* legitimately
differ from the serial executor — each slice scans its chains on its own
— while results and survivor sets do not.

Wire-up: ``QuerySession(parallel=...)`` accepts a worker count or a
:class:`ParallelOptions` and routes GTEA-executor plans here, from
:meth:`~repro.engine.session.QuerySession.evaluate` and
:meth:`~repro.engine.session.QuerySession.evaluate_many` alike.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field

from ..plan.compile import CompiledPlan
from ..query.gtpq import EdgeType
from ..query.serialize import query_from_json, query_to_json
from ..reachability.contour import Contour
from .operators import (
    BuildMatchingGraph,
    CandidateScan,
    CollectResults,
    ExecutionState,
    OperatorStats,
    UpwardPrune,
    run_pipeline,
)
from .prune import PruningContext, build_pred_contour, downward_step
from .results import ResultSet
from .stats import EvaluationStats

#: backends :class:`ParallelOptions` accepts.
BACKENDS = ("auto", "process", "serial")


@dataclass(frozen=True)
class ParallelOptions:
    """Configuration of one :class:`ParallelExecutor`.

    Attributes:
        workers: pool size, and the most slices one node's candidates
            are cut into.
        backend: one of :data:`BACKENDS`.
        min_shard_size: candidates required per slice before a node's
            list is cut further — small lists run as one task.
    """

    workers: int = 2
    backend: str = "auto"
    min_shard_size: int = 16

    def __post_init__(self):
        for name in ("workers", "min_shard_size"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"parallel {name} must be an int >= 1, got {value!r}")
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown parallel backend {self.backend!r}; expected one of {BACKENDS}"
            )

    @property
    def resolved_backend(self) -> str:
        """:attr:`backend`, with ``"auto"`` resolved for this host."""
        if self.backend != "auto":
            return self.backend
        return "process" if "fork" in multiprocessing.get_all_start_methods() else "serial"


def split_candidates(candidates: list[int], workers: int, min_shard_size: int) -> list[list[int]]:
    """Cut ``candidates`` into ``min(workers, ceil(n / min_shard_size))``
    contiguous slices whose sizes differ by at most one (none empty).

    Concatenating the slices gives back the input, whatever its order;
    slices of the ascending id list also sit on few 3-hop chains each.
    """
    count = min(workers, -(-len(candidates) // min_shard_size))
    shards, start = [], 0
    for position in range(count):
        end = start + len(candidates) // count + (position < len(candidates) % count)
        shards.append(candidates[start:end])
        start = end
    return shards


# ----------------------------------------------------------------------
# Shard tasks.  One task = one (query node, candidate slice) refinement;
# the function is backend-agnostic and the process backend wraps it with
# fork-inherited graph/index state.
# ----------------------------------------------------------------------
def _run_shard(graph, reach, query, node_id, candidates, refined_children, contour_data):
    """Refine one candidate slice; returns (survivors, lookups, entries).

    ``contour_data`` carries the raw per-chain maps of the AD children's
    predecessor contours (3-hop index only); the task rebuilds
    :class:`~repro.reachability.contour.Contour` objects around them so
    :func:`~repro.engine.prune.downward_step` sees exactly the state the
    serial :class:`~repro.engine.operators.DownwardPrune` operator would.
    """
    before = reach.counters.snapshot()
    context = PruningContext(graph, query, reach)
    for child_id, data in contour_data.items():
        context.pred_contours[child_id] = Contour(dict(data))
    survivors = downward_step(context, node_id, candidates, refined_children)
    after = reach.counters.snapshot()
    return (
        survivors,
        after["lookups"] - before["lookups"],
        after["entries_scanned"] - before["entries_scanned"],
    )


#: fork-inherited per-process state of the process backend's workers.
_WORKER_STATE: dict = {}


def _init_process_worker(graph, reach) -> None:
    _WORKER_STATE["graph"] = graph
    _WORKER_STATE["reach"] = reach
    _WORKER_STATE["queries"] = {}


def _process_shard_task(query_json, node_id, candidates, refined_children, contour_data):
    queries = _WORKER_STATE["queries"]
    query = queries.get(query_json)
    if query is None:
        if len(queries) >= 256:
            queries.clear()
        query = query_from_json(query_json)
        queries[query_json] = query
    return _run_shard(
        _WORKER_STATE["graph"],
        _WORKER_STATE["reach"],
        query,
        node_id,
        candidates,
        refined_children,
        contour_data,
    )


@dataclass
class _NodeRun:
    """Driver-side bookkeeping of one in-flight downward prune."""

    node_id: str
    started: float
    input_size: int
    futures: list[Future] = field(default_factory=list)  #: one per slice, in slice order.
    survivors: list[int] = field(default_factory=list)  #: the inline result (no futures).
    lookups: int = 0  #: driver-side probes (inline refinement, contour builds).
    entries: int = 0


class ParallelExecutor:
    """Sharded driver for the GTEA downward prune.

    Pinned to one engine *and* one graph version: the process backend's
    workers fork with the graph and the built reachability index in
    memory, so a mutated graph requires a fresh executor (the session
    layer rebuilds its executors on invalidation).  Use as a context
    manager, or call :meth:`close` to release the pool.
    """

    def __init__(
        self,
        engine,
        workers: int = 2,
        *,
        backend: str = "auto",
        min_shard_size: int = 16,
    ):
        options = ParallelOptions(workers=workers, backend=backend, min_shard_size=min_shard_size)
        self.engine = engine
        self.workers = options.workers
        self.backend = options.resolved_backend
        self.min_shard_size = options.min_shard_size
        self._graph_version = engine.graph.version
        self._pool: ProcessPoolExecutor | None = None

    @classmethod
    def from_options(cls, engine, options: ParallelOptions) -> "ParallelExecutor":
        return cls(engine, **asdict(options))

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor | None:
        if self.backend == "serial":
            return None
        if self._pool is None:
            # Force the index before forking so workers inherit it
            # built — tasks must never rebuild it per process.  A closure
            # is not completed: no component id crosses to a worker
            # (slices and survivors are data nodes, contours are 3-hop's,
            # which completes), so each numbers its own copy on demand.
            reach = self.engine.reachability
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_init_process_worker,
                initargs=(self.engine.graph, reach),
            )
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _check_fresh(self) -> None:
        if self.engine.graph.version != self._graph_version:
            raise RuntimeError(
                "ParallelExecutor is pinned to graph version "
                f"{self._graph_version}, but the graph is now at version "
                f"{self.engine.graph.version}; create a fresh executor"
            )

    # ------------------------------------------------------------------
    # Single-plan execution
    # ------------------------------------------------------------------
    def execute(
        self,
        plan: CompiledPlan,
        group_nodes: tuple[str, ...] = (),
        candidate_provider=None,
        stats: EvaluationStats | None = None,
    ) -> tuple[ResultSet, EvaluationStats]:
        """Run a compiled plan with a sharded downward phase.

        Unsatisfiable (constant-empty) plans and group evaluations
        (which run the original query) delegate to the engine's serial
        pipeline unchanged.
        """
        if stats is None:
            stats = EvaluationStats()
        self._check_fresh()
        if plan.physical.executor != "gtea" or group_nodes:
            return self.engine.execute(
                plan,
                group_nodes=group_nodes,
                candidate_provider=candidate_provider,
                stats=stats,
            )
        state = ExecutionState(
            self.engine, plan.query, stats, candidate_provider=candidate_provider
        )
        stats.parallel_workers = max(stats.parallel_workers, self.workers)
        run_pipeline(state, [CandidateScan()])
        if not state.finished:
            self._prune_frontier(state)
        run_pipeline(state, [UpwardPrune(), BuildMatchingGraph(), CollectResults()])
        return state.answer, stats

    def _prune_frontier(self, state: ExecutionState) -> None:
        """The downward phase of one query: fills ``state.down``."""
        stats, query, context = state.stats, state.query, state.context
        query_json = query_to_json(query) if self.backend == "process" else None
        backbone = {n for n in query.nodes if query.nodes[n].is_backbone}

        def start(node_id, pool) -> _NodeRun:
            return self._submit_node(
                pool,
                context,
                query_json,
                node_id,
                state.mats[node_id],
                {child: state.down[child] for child in query.children[node_id]},
            )

        def finish(node_id, run: _NodeRun) -> None:
            survivors, record = self._collect_node(run, stats)
            state.down[node_id] = survivors
            stats.candidates_after_downward[node_id] = len(survivors)
            if node_id in backbone and not survivors:
                # Every match embeds every backbone node (same argument as
                # the adaptive early exit): the answer is already empty.
                record.note += " early-exit"
                state.finish_empty()

        with stats.time_phase("prune_downward"):
            self._frontier(query.children, state.down, start, finish, lambda: state.finished)

    # ------------------------------------------------------------------
    # The frontier and the "refine a node" path under it
    # ------------------------------------------------------------------
    def _frontier(self, children_of, done, start, finish, stop) -> None:
        """Refine every key of ``children_of`` (key -> the keys it reads).

        A key is started (``start(key, pool) -> _NodeRun``) once all its
        children are in ``done``, and finished (``finish(key, run)``,
        which puts it into ``done``) once its slices are back; ``stop()``
        ends the loop early.  Keys are started and finished in sorted
        order, so the ``"serial"`` backend is deterministic.

        A pool that lost a worker raises :class:`BrokenProcessPool` from
        ``submit`` or from a result: it is discarded, whatever is not in
        ``done`` yet starts over, and the rest of this frontier refines
        its slices inline — slower, never wrong or hung.  Exceptions
        raised *by* a task propagate unchanged.
        """
        pool = self._ensure_pool()
        todo = set(children_of)
        running: dict[str, _NodeRun] = {}
        try:
            while (todo or running) and not stop():
                try:
                    for key in sorted(
                        k for k in todo if all(child in done for child in children_of[k])
                    ):
                        todo.discard(key)
                        running[key] = start(key, pool)
                    if not running:  # pragma: no cover
                        raise RuntimeError("downward frontier stalled (query is not a tree?)")
                    in_flight = {
                        future
                        for run in running.values()
                        for future in run.futures
                        if not future.done()
                    }
                    finished = sorted(
                        key for key, run in running.items() if in_flight.isdisjoint(run.futures)
                    )
                    if not finished:
                        wait(in_flight, return_when=FIRST_COMPLETED)
                    for key in finished:
                        finish(key, running.pop(key))
                        if stop():
                            break
                except BrokenProcessPool:
                    self._pool.shutdown(wait=False, cancel_futures=True)
                    self._pool = pool = None
                    running.clear()
                    todo = {key for key in children_of if key not in done}
        finally:
            # Early exit or a task error: nobody reads the rest.
            for run in running.values():
                for future in run.futures:
                    future.cancel()

    def _submit_node(
        self, pool, context, query_json, node_id, candidates, refined_children
    ) -> _NodeRun:
        """Start refining one node; ``pool`` is None for inline futures.

        The raw predecessor-contour map of each AD child (3-hop index
        only) is built here, driver-side, and shipped with every slice.
        """
        query = context.query
        run = _NodeRun(node_id, time.perf_counter(), len(candidates))
        before = context.reach.counters.snapshot()
        # An empty set refines to the empty set without a Procedure-6
        # visit (the visit would read child contours nobody built).
        if candidates and not query.children[node_id]:
            # Leaf (constant fext): O(set size), not worth a task.
            run.survivors = downward_step(context, node_id, candidates, refined_children)
        elif candidates:
            contour_data = {}
            if context.index is not None:
                contour_data = {
                    child: build_pred_contour(context, refined_children[child]).data
                    for child in query.children[node_id]
                    if query.edge_type(child) is EdgeType.DESCENDANT
                }
            for shard in split_candidates(candidates, self.workers, self.min_shard_size):
                task = (node_id, shard, refined_children, contour_data)
                if pool is not None:
                    future = pool.submit(_process_shard_task, query_json, *task)
                else:
                    future = Future()
                    future.set_result(_run_shard(context.graph, context.reach, query, *task))
                run.futures.append(future)
        after = context.reach.counters.snapshot()
        run.lookups = after["lookups"] - before["lookups"]
        run.entries = after["entries_scanned"] - before["entries_scanned"]
        return run

    def _collect_node(
        self, run: _NodeRun, stats: EvaluationStats
    ) -> tuple[list[int], OperatorStats]:
        """Fold one finished node into ``stats``: the survivor list (slice
        results concatenated in slice order) and its operator record."""
        parts = [future.result() for future in run.futures]
        survivors = run.survivors
        for part, lookups, entries in parts:
            survivors.extend(part)
            run.lookups += lookups
            run.entries += entries
        stats.parallel_shard_tasks += len(parts)
        stats.downward_prune_ops += 1
        stats.index_lookups += run.lookups
        stats.index_entries += run.entries
        record = OperatorStats(
            op="DownwardPrune",
            target=run.node_id,
            input_size=run.input_size,
            output_size=len(survivors),
            seconds=time.perf_counter() - run.started,
            index_lookups=run.lookups,
            index_entries=run.entries,
            note=f"parallel x{len(parts)}" if parts else "parallel inline",
        )
        stats.operator_stats.append(record)
        return survivors, record
