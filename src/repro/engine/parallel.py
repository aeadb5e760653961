"""Sharded, concurrent prune execution across a worker pool.

The downward prune phase is the natural parallelism seam of the GTEA
pipeline: once a node's children are refined, its Procedure-6 visit
(:func:`repro.engine.prune.downward_step`) evaluates ``fext``
independently per candidate, and nodes on disjoint subtrees have no
data dependencies at all.  :class:`ParallelExecutor` exploits both axes
without modifying the operators themselves:

* **frontier dispatch** — the eligibility set of the adaptive scheduler
  (nodes whose children are all refined) becomes a dispatch frontier;
  every eligible node's prune is launched concurrently;
* **candidate sharding** — each node's candidate set is split by a
  :class:`repro.graph.partition.GraphPartition` into shards refined as
  independent pool tasks, and the shard survivor sets are merged with
  :func:`repro.graph.partition.merge_survivors` (sorted by node id)
  before :class:`~repro.engine.operators.UpwardPrune` runs — so a
  sharded run is byte-identical to a single-shard run in results and
  survivor sets.

Three backends: ``"process"`` (a fork-started
:class:`~concurrent.futures.ProcessPoolExecutor`; workers inherit the
graph and the built reachability index by memory, tasks ship only the
query JSON, the candidate shard, the refined child sets and the contour
data), ``"thread"`` (in-process pool; real concurrency is GIL-bound but
the dispatch machinery is identical), and ``"serial"`` (inline
execution through the same code path — the deterministic reference the
oracle harness compares against).  ``"auto"`` picks ``"process"`` where
fork is available.

The driver covers the whole plan suffix, not just the downward phase:

* **sharded upward prune** — once the downward sets are fixed,
  Procedure 7 refines each prime child independently per
  candidate given the parent's refined set; the driver walks the prime
  subtree as a top-down frontier, ships each child's candidate shards
  to the same pool (parent successor contours are built driver-side,
  like the downward pass's predecessor contours), and merges survivors
  sorted — byte-identical to the serial operator;
* **scan/prune overlap** — instead of scanning every ``mat(u)`` up
  front, the driver fetches the root first (the
  serial scan's empty-root exit), then scans the remaining nodes
  bottom-up *between* frontier polls, so leaf prune tasks start while
  later nodes' candidate fetches are still running;
* **work stealing** — shard tasks are not thrown at the pool all at
  once: at most ``workers`` are in flight, the rest
  wait in a shared deque (largest shards first), and every completion
  drains the next pending task — so a worker finishing a small shard
  immediately steals queued work instead of idling behind a skewed
  sibling.  ``EvaluationStats.parallel_steals`` counts the drains.

Leaf nodes and empty candidate sets are refined inline (their prune is
O(set size) with no index work — not worth a task).  Like the adaptive
scheduler, the driver short-circuits to the empty answer as soon as a
backbone node's merged survivor set comes back empty.
:class:`BuildMatchingGraph` and :class:`CollectResults` stay on the
serial pipeline — the matching graph joins *across* the merged survivor
sets, so it has no per-candidate independence to exploit.

Index-probe attribution is exact under the ``"serial"`` and
``"process"`` backends (per-task counter deltas; process workers are
single-threaded).  The ``"thread"`` backend shares one counter set
across concurrent tasks, so per-record attribution there is
approximate.  Probe *counts* legitimately differ from the serial
executor — per-shard chain scans and per-shard memoization repeat work
the single-shard pass shares — while results and survivor sets do not.

Batch workloads go through :meth:`ParallelExecutor.materialize_dag`:
the topological order of a :class:`~repro.plan.shared.SharedPlanDAG`
becomes a batch-wide frontier (subtrees whose child fingerprints are
materialized dispatch concurrently), with the same cache and stats
bookkeeping as the serial :class:`~repro.engine.shared.SharedExecutor`.

Wire-up: ``QuerySession(parallel=...)`` accepts a worker count or a
:class:`ParallelOptions` and routes GTEA-executor plans here, both for
:meth:`~repro.engine.session.QuerySession.evaluate` and for the shared
batch path of :meth:`~repro.engine.session.QuerySession.evaluate_many`.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import asdict, dataclass, field

from ..graph.partition import GraphPartition, merge_survivors
from ..plan.compile import CompiledPlan
from ..plan.shared import BatchPlan
from ..query.gtpq import EdgeType
from ..query.naive import candidate_nodes
from ..query.serialize import query_from_json, query_to_json
from ..reachability.contour import Contour, merge_succ_lists
from .cache import CacheCounters, LRUCache
from .operators import (
    BuildMatchingGraph,
    CollectResults,
    ExecutionState,
    OperatorStats,
    begin_upward,
    finish_upward,
    run_pipeline,
)
from .prime import compute_prime_subtree
from .prune import (
    PruningContext,
    _filter_upward_ad,
    _filter_upward_ad_generic,
    build_pred_contour,
    downward_step,
)
from .results import ResultSet
from .stats import EvaluationStats

#: backends :class:`ParallelOptions` accepts.
BACKENDS = ("auto", "process", "thread", "serial")


@dataclass(frozen=True)
class ParallelOptions:
    """Configuration of one :class:`ParallelExecutor`.

    Attributes:
        workers: pool size (and the default shard count).
        backend: one of :data:`BACKENDS`; ``"auto"`` resolves to
            ``"process"`` where fork is available, else ``"thread"``.
        shards: shards per downward prune (defaults to ``workers``).
        strategy: candidate routing strategy of
            :class:`~repro.graph.partition.GraphPartition`; the default
            ``"hybrid"`` picks ``hash`` vs ``range`` per candidate set
            from its observed skew across the range shards.
        min_shard_size: candidates required per shard before a node's
            set is split further — small sets run as one task.
    """

    workers: int = 2
    backend: str = "auto"
    shards: int | None = None
    strategy: str = "hybrid"
    min_shard_size: int = 16


def _resolve_backend(backend: str) -> str:
    if backend not in BACKENDS:
        raise ValueError(f"unknown parallel backend {backend!r}; expected one of {BACKENDS}")
    if backend != "auto":
        return backend
    import multiprocessing

    return "process" if "fork" in multiprocessing.get_all_start_methods() else "thread"


# ----------------------------------------------------------------------
# Shard tasks.  One task = one (query node, candidate shard) refinement;
# the function is backend-agnostic and the process backend wraps it with
# fork-inherited graph/index state.
# ----------------------------------------------------------------------
def _run_shard(
    graph, reach, query, node_id, candidates, refined_children, contour_data, probe_cache=None
):
    """Refine one candidate shard; returns (survivors, lookups, entries).

    ``contour_data`` carries the raw per-chain maps of the AD children's
    predecessor contours (3-hop index only); the task rebuilds
    :class:`~repro.reachability.contour.Contour` objects around them so
    :func:`~repro.engine.prune.downward_step` sees exactly the state the
    serial :class:`~repro.engine.operators.DownwardPrune` operator would.
    ``probe_cache`` (thread/serial backends only) shares chain-scan
    snapshots between the shards of one wave.
    """
    before = reach.counters.snapshot()
    context = PruningContext(graph, query, reach)
    context.probe_cache = probe_cache
    if contour_data:
        for child_id, data in contour_data.items():
            context.pred_contours[child_id] = Contour(dict(data))
    survivors = downward_step(context, node_id, list(candidates), refined_children)
    after = reach.counters.snapshot()
    return (
        survivors,
        after["lookups"] - before["lookups"],
        after["entries_scanned"] - before["entries_scanned"],
    )


def _run_upward_shard(graph, reach, kind, candidates, payload):
    """Refine one upward shard; returns (survivors, lookups, entries).

    Procedure 7's child refinement is independent per candidate once the
    parent's refined set is fixed, so the driver ships each prime
    child's candidate shards with the parent state they need and merges
    the survivor lists sorted.  Three task kinds:

    * ``"pc"`` — exact parent-set membership; payload is the parent's
      refined data-node set;
    * ``"ad"`` — 3-hop successor-contour filter; payload is the raw
      contour map plus the parent component set (Proposition 7);
    * ``"ad-generic"`` — memoized ``reaches`` probes for non-3-hop
      indexes; payload is the parent component list.

    Each filter preserves the ascending input order, so shard survivors
    merge byte-identically to the serial pass.  The query itself is not
    needed: upward filtering reads only the graph and the index.
    """
    before = reach.counters.snapshot()
    if kind == "pc":
        survivors = [
            candidate
            for candidate in candidates
            if not payload.isdisjoint(graph.predecessors(candidate))
        ]
    else:
        context = PruningContext(graph, None, reach)
        if kind == "ad":
            contour_data, parent_components = payload
            survivors = _filter_upward_ad(
                context, list(candidates), Contour(dict(contour_data)), set(parent_components)
            )
        else:
            survivors = _filter_upward_ad_generic(context, list(candidates), list(payload))
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
    survivors, lookups, entries = _run_shard(
        _WORKER_STATE["graph"],
        _WORKER_STATE["reach"],
        query,
        node_id,
        candidates,
        refined_children,
        contour_data,
    )
    return survivors, lookups, entries, f"pid:{os.getpid()}"


def _process_upward_task(kind, candidates, payload):
    survivors, lookups, entries = _run_upward_shard(
        _WORKER_STATE["graph"], _WORKER_STATE["reach"], kind, candidates, payload
    )
    return survivors, lookups, entries, f"pid:{os.getpid()}"


@dataclass
class _NodeRun:
    """Driver-side bookkeeping of one in-flight downward prune."""

    started: float
    input_size: int
    pending: int  #: shard tasks still outstanding.
    shards: int  #: shard tasks dispatched.
    shard_results: list = field(default_factory=list)
    lookups: int = 0  #: contour-build probes plus worker deltas.
    entries: int = 0


class _TaskPump:
    """The shared work-stealing deque between the driver and the pool.

    Submission thunks queue here instead of going straight to the pool;
    at most ``cap`` tasks are in flight.  The driver calls :meth:`fill`
    with ``stolen=False`` right after enqueueing a wave and with
    ``stolen=True`` after completions — the
    latter drains model "an idle worker steals the next pending shard"
    and count into ``EvaluationStats.parallel_steals``.  Queue order is
    dispatch order; callers enqueue each wave's shards largest-first
    (LPT) so a skewed shard starts as early as possible.

    The counting is deterministic under the ``"serial"`` backend (every
    fill resolves inline), which is what the oracle and CI sanity
    assertions pin down.
    """

    def __init__(self, stats: EvaluationStats, cap: int):
        self.stats = stats
        self.cap = cap
        self.queue: deque = deque()  #: pending (key, submit thunk) tasks.
        self.in_flight: dict[Future, str] = {}

    def add(self, key: str, thunk) -> None:
        self.queue.append((key, thunk))

    def fill(self, *, stolen: bool) -> None:
        while self.queue and len(self.in_flight) < self.cap:
            key, thunk = self.queue.popleft()
            self.in_flight[thunk()] = key
            if stolen:
                self.stats.parallel_steals += 1

    @property
    def busy(self) -> bool:
        return bool(self.in_flight) or bool(self.queue)

    def drain(self) -> None:
        """Cancel and await outstanding tasks (early exit)."""
        self.queue.clear()
        if self.in_flight:
            for future in self.in_flight:
                future.cancel()
            wait(list(self.in_flight))
            self.in_flight.clear()


class _ScanProgress:
    """Bookkeeping of the overlapped candidate scan (one per execution)."""

    def __init__(self, pending: list[str]):
        self.pending = deque(pending)  #: nodes still to scan, in order.
        self.seconds = 0.0
        self.scanned: set[str] = set()


class ParallelExecutor:
    """Sharded, concurrent driver for the GTEA prune phases.

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
        shards: int | None = None,
        strategy: str = "hybrid",
        min_shard_size: int = 16,
    ):
        self.engine = engine
        self.workers = max(1, int(workers))
        self.backend = _resolve_backend(backend)
        self.num_shards = max(1, int(shards) if shards is not None else self.workers)
        self.min_shard_size = max(1, int(min_shard_size))
        self._partition = GraphPartition.for_graph(engine.graph, self.num_shards, strategy)
        self._graph_version = engine.graph.version
        self._pool: ProcessPoolExecutor | ThreadPoolExecutor | None = None

    @classmethod
    def from_options(cls, engine, options: ParallelOptions) -> "ParallelExecutor":
        return cls(engine, **asdict(options))

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self):
        if self.backend == "serial":
            return None
        if self._pool is None:
            if self.backend == "thread":
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="repro-prune"
                )
            else:
                import multiprocessing

                # Force the index before forking so workers inherit it
                # built — tasks must never rebuild it per process.
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

        Plans routed away from GTEA (unsatisfiable, baseline) and group
        evaluations (which run the original query) delegate to the
        engine's serial pipeline unchanged.
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
        labels = _WorkerLabels()
        # The serial scan's only early exit is an empty root set, so
        # fetching the root first preserves it; every other node is
        # scanned lazily inside the frontier loop.
        scan = _ScanProgress([n for n in state.query.bottom_up() if n != state.query.root])
        self._scan_node(state, scan, state.query.root)
        if not state.mats[state.query.root]:
            self._finish_scan(state, scan)
            state.finish_empty()
            return state.answer, stats
        self._prune_frontier(state, scan, labels)
        if not state.finished:
            self._upward_prune(state, labels)
        if not state.finished:
            run_pipeline(state, [BuildMatchingGraph(), CollectResults()])
        return state.answer, stats

    # ------------------------------------------------------------------
    # Overlapped candidate scan
    # ------------------------------------------------------------------
    def _scan_node(self, state: ExecutionState, scan: _ScanProgress, node_id: str) -> None:
        """Fetch one node's ``mat(u)``, mirroring ``CandidateScan``."""
        stats, query = state.stats, state.query
        started = time.perf_counter()
        with stats.time_phase("candidates"):
            if state.candidate_provider is not None:
                state.mats[node_id] = list(state.candidate_provider(query, node_id))
            else:
                state.mats[node_id] = candidate_nodes(state.graph, query, node_id)
            stats.candidates_initial[node_id] = len(state.mats[node_id])
        scan.seconds += time.perf_counter() - started
        scan.scanned.add(node_id)

    def _finish_scan(self, state: ExecutionState, scan: _ScanProgress) -> None:
        """Close the overlapped scan: the #input metric and the operator
        record the serial ``CandidateScan`` would have produced (inserted
        first, where the serial pipeline puts it).  On an early exit the
        unscanned nodes stay unscanned — fewer fetches, so ``#input``
        then covers only the scanned subset."""
        stats = state.stats
        stats.input_nodes = sum(stats.candidates_initial.values())
        stats.operator_stats.insert(
            0,
            OperatorStats(
                op="CandidateScan",
                target=None,
                input_size=len(scan.scanned),
                output_size=sum(len(state.mats[n]) for n in scan.scanned),
                seconds=scan.seconds,
                index_lookups=0,
                index_entries=0,
                note="parallel overlap",
            ),
        )

    def _prune_frontier(
        self, state: ExecutionState, scan: _ScanProgress, labels: "_WorkerLabels"
    ) -> None:
        """Dispatch every eligible downward prune until all nodes refine.

        The loop fetches one unscanned node's candidates per iteration
        and polls the pool instead of blocking, so fetches hide behind
        in-flight prune tasks; eligibility additionally requires the
        node itself to be scanned.  Scan time accrues to the
        ``candidates`` phase, the rest of the loop to ``prune_downward``.
        """
        stats, query = state.stats, state.query
        pool = self._ensure_pool()
        query_json = query_to_json(query) if self.backend == "process" else None
        backbone = {n for n in query.nodes if query.nodes[n].is_backbone}
        remaining = set(query.nodes)
        runs: dict[str, _NodeRun] = {}
        pump = _TaskPump(stats, self.workers)
        loop_started = time.perf_counter()
        scan_seconds_before = scan.seconds
        while (remaining or pump.busy) and not state.finished:
            if scan.pending:
                self._scan_node(state, scan, scan.pending.popleft())
            eligible = sorted(
                node_id
                for node_id in remaining
                if node_id in scan.scanned
                and all(child in state.down for child in query.children[node_id])
            )
            for node_id in eligible:
                remaining.discard(node_id)
                self._dispatch_node(state, node_id, pool, query_json, pump, runs)
                if state.finished:
                    break
            if state.finished:
                break
            pump.fill(stolen=False)
            if not pump.in_flight:
                if remaining and not eligible and not scan.pending:  # pragma: no cover
                    raise RuntimeError("downward frontier stalled (query is not a tree?)")
                continue
            timeout = 0 if scan.pending else None
            done, _ = wait(pump.in_flight, timeout=timeout, return_when=FIRST_COMPLETED)
            for future in sorted(done, key=lambda f: pump.in_flight[f]):
                node_id = pump.in_flight.pop(future)
                run = runs[node_id]
                survivors, lookups, entries, raw_label = future.result()
                run.shard_results.append(survivors)
                run.lookups += lookups
                run.entries += entries
                labels.count(stats, raw_label)
                run.pending -= 1
                if run.pending == 0:
                    self._finalize_node(state, node_id, run, backbone, note="parallel")
                    if state.finished:
                        break
            if not state.finished:
                pump.fill(stolen=True)
        scan_elapsed = scan.seconds - scan_seconds_before
        prune_elapsed = max(0.0, time.perf_counter() - loop_started - scan_elapsed)
        stats.phase_seconds["prune_downward"] = (
            stats.phase_seconds.get("prune_downward", 0.0) + prune_elapsed
        )
        pump.drain()  # early exit with outstanding shards: drain the pool
        self._finish_scan(state, scan)

    # ------------------------------------------------------------------
    # Sharded upward prune
    # ------------------------------------------------------------------
    def _upward_prune(self, state: ExecutionState, labels: "_WorkerLabels") -> None:
        """Sharded counterpart of the serial ``UpwardPrune`` operator.

        Same preamble/epilogue (:func:`begin_upward` /
        :func:`finish_upward`), same prime subtree, one ``UpwardPrune``
        operator record — but the Procedure-7 refinement itself runs as
        a top-down frontier over the pool (:meth:`_upward_frontier`).
        """
        stats = state.stats
        started = time.perf_counter()
        input_size = sum(len(nodes) for nodes in state.down.values())
        tasks = lookups = entries = 0
        if begin_upward(state):
            with stats.time_phase("prune_upward"):
                state.prime = compute_prime_subtree(
                    state.query, state.down, state.prime_outputs
                )
                tasks, lookups, entries = self._upward_frontier(state, labels)
            finish_upward(state)
        stats.index_lookups += lookups
        stats.index_entries += entries
        stats.operator_stats.append(
            OperatorStats(
                op="UpwardPrune",
                target=None,
                input_size=input_size,
                output_size=sum(len(nodes) for nodes in state.down.values()),
                seconds=time.perf_counter() - started,
                index_lookups=lookups,
                index_entries=entries,
                note="parallel" + (f" x{tasks}" if tasks else " inline"),
            )
        )

    def _upward_frontier(
        self, state: ExecutionState, labels: "_WorkerLabels"
    ) -> tuple[int, int, int]:
        """Procedure 7 as a top-down frontier; returns (tasks, lookups,
        entries).

        A prime parent dispatches once its own refined set is final (the
        root's is final after the downward pass; a child's once its
        shard tasks merged).  The parent-side state each task needs —
        the refined data-node set for PC children, the merged successor
        contour plus component set for AD children — is built driver
        side and shipped with the shard, mirroring the downward pass's
        contour handling.  The contour is built lazily at the parent's
        visit, which equals the serial pass's post-refinement rebuild
        value with fewer probes.  Every filter preserves ascending input
        order, so the sorted shard merge is byte-identical to serial.

        Empty parent sets short-circuit their children to ``[]`` inline
        (every serial filter maps an empty parent state to ``[]``), as
        do empty child sets.

        Probe attribution: driver-side contour builds are bracketed
        with counter snapshots and task deltas are returned by the
        tasks — exact under the serial and process backends,
        approximate under thread (shared counters; the module
        docstring's existing caveat).
        """
        stats, query = state.stats, state.query
        context = state.context
        index, reach = context.index, context.reach
        pool = self._ensure_pool()
        prime_set = set(state.prime)
        children_of = {
            node_id: [c for c in query.children[node_id] if c in prime_set]
            for node_id in state.prime
        }
        refined = {node_id: list(nodes) for node_id, nodes in state.down.items()}
        pending_parents = {n for n in state.prime if children_of[n]}
        finalized = {query.root}
        runs: dict[str, _NodeRun] = {}
        pump = _TaskPump(stats, self.workers)
        tasks = total_lookups = total_entries = 0
        while pending_parents or pump.busy:
            ready = sorted(p for p in pending_parents if p in finalized or p == query.root)
            for parent in ready:
                pending_parents.discard(parent)
                parent_nodes = refined[parent]
                children = children_of[parent]
                payloads: dict[str, tuple[str, object]] = {}
                if parent_nodes:
                    before = reach.counters.snapshot()
                    parent_components = context.dag_images(parent_nodes)
                    contour_data = None
                    if index is not None and any(
                        query.edge_type(c) is EdgeType.DESCENDANT for c in children
                    ):
                        contour_data = merge_succ_lists(index, parent_components).data
                    parent_data_set = set(parent_nodes)
                    after = reach.counters.snapshot()
                    total_lookups += after["lookups"] - before["lookups"]
                    total_entries += after["entries_scanned"] - before["entries_scanned"]
                    for child_id in children:
                        if query.edge_type(child_id) is EdgeType.CHILD:
                            payloads[child_id] = ("pc", parent_data_set)
                        elif index is not None:
                            payloads[child_id] = (
                                "ad",
                                (contour_data, parent_components),
                            )
                        else:
                            payloads[child_id] = ("ad-generic", parent_components)
                for child_id in children:
                    candidates = refined[child_id]
                    if not parent_nodes or not candidates:
                        refined[child_id] = []
                        finalized.add(child_id)
                        continue
                    kind, payload = payloads[child_id]
                    shards = [
                        shard
                        for shard in self._partition.split(
                            candidates, self._shard_count(len(candidates))
                        )
                        if shard
                    ]
                    shards.sort(key=len, reverse=True)  # LPT
                    runs[child_id] = _NodeRun(
                        started=time.perf_counter(),
                        input_size=len(candidates),
                        pending=len(shards),
                        shards=len(shards),
                    )
                    for shard in shards:
                        pump.add(
                            child_id,
                            lambda shard=shard, kind=kind, payload=payload: (
                                self._submit_upward(pool, kind, shard, payload)
                            ),
                        )
                    stats.parallel_upward_tasks += len(shards)
                    tasks += len(shards)
            pump.fill(stolen=False)
            if not pump.in_flight:
                if pending_parents and not ready:  # pragma: no cover
                    raise RuntimeError("upward frontier stalled (query is not a tree?)")
                continue
            done, _ = wait(pump.in_flight, return_when=FIRST_COMPLETED)
            for future in sorted(done, key=lambda f: pump.in_flight[f]):
                child_id = pump.in_flight.pop(future)
                run = runs[child_id]
                survivors, lookups, entries, raw_label = future.result()
                run.shard_results.append(survivors)
                run.lookups += lookups
                run.entries += entries
                labels.count(stats, raw_label)
                run.pending -= 1
                if run.pending == 0:
                    refined[child_id] = merge_survivors(run.shard_results)
                    finalized.add(child_id)
                    total_lookups += run.lookups
                    total_entries += run.entries
            pump.fill(stolen=True)
        state.down = refined
        return tasks, total_lookups, total_entries

    def _submit_upward(self, pool, kind, shard, payload) -> Future:
        if self.backend == "process":
            return pool.submit(_process_upward_task, kind, shard, payload)
        if self.backend == "thread":
            graph, reach = self.engine.graph, self.engine.reachability
            return pool.submit(
                lambda: (
                    *_run_upward_shard(graph, reach, kind, shard, payload),
                    threading.current_thread().name,
                )
            )
        future: Future = Future()
        future.set_result(
            (
                *_run_upward_shard(
                    self.engine.graph, self.engine.reachability, kind, shard, payload
                ),
                "serial",
            )
        )
        return future

    # ------------------------------------------------------------------
    # Batch-wide frontier over a shared-plan DAG
    # ------------------------------------------------------------------
    def materialize_dag(
        self,
        batch: BatchPlan,
        stats_by_plan: list[EvaluationStats],
        *,
        candidate_provider=None,
        subtree_cache: LRUCache | None = None,
        candidate_counters: CacheCounters | None = None,
    ) -> dict[str, tuple[int, ...]]:
        """Concurrent counterpart of ``SharedExecutor._materialize_dag``.

        The DAG's topological order becomes a batch-wide frontier:
        subtrees whose child fingerprints are materialized dispatch
        concurrently, across queries.  Cache probes, candidate fetches
        and stats attribution mirror the serial path — work is charged
        to each subtree's exemplar query.
        """
        self._check_fresh()
        down: dict[str, tuple[int, ...]] = {}
        if not batch.dag.subtrees:
            return down
        pending = []
        for subtree in batch.dag.subtrees:
            stats = stats_by_plan[subtree.exemplar[0]]
            if subtree_cache is not None:
                cached = subtree_cache.get(subtree.fingerprint)
                if cached is not None:
                    stats.subtree_cache_hits += 1
                    down[subtree.fingerprint] = cached
                    continue
                stats.subtree_cache_misses += 1
            pending.append(subtree)
        if not pending:
            return down
        subtree_by_fp = {subtree.fingerprint: subtree for subtree in pending}

        pool = self._ensure_pool()
        engine = self.engine
        contexts: dict[int, PruningContext] = {}
        contours: dict[str, dict | None] = {}  # child fingerprint -> contour data
        query_jsons: dict[int, str] = {}
        remaining = {subtree.fingerprint: subtree for subtree in pending}
        in_flight: dict[Future, str] = {}
        runs: dict[str, _NodeRun] = {}
        workers = _WorkerLabels()

        def dispatch(subtree) -> None:
            position, node_id = subtree.exemplar
            stats = stats_by_plan[position]
            stats.parallel_workers = max(stats.parallel_workers, self.workers)
            plan = batch.plans[position]
            query = plan.query
            context = contexts.get(position)
            if context is None:
                context = PruningContext(engine.graph, query, engine.reachability)
                contexts[position] = context
            started = time.perf_counter()
            with stats.record_candidate_cache(candidate_counters):
                with stats.time_phase("candidates"):
                    if candidate_provider is not None:
                        candidates = list(candidate_provider(query, node_id))
                    else:
                        candidates = candidate_nodes(engine.graph, query, node_id)
            stats.candidates_initial[node_id] = len(candidates)
            stats.input_nodes += len(candidates)

            children = query.children[node_id]
            fingerprints = batch.dag.node_fingerprints[position]
            refined_children = {
                child_id: list(down[fingerprints[child_id]]) for child_id in children
            }
            if not children or not candidates:
                # Leaf or empty set: inline.  An empty set refines to the
                # empty set without a Procedure-6 visit (the visit would
                # read child contours this driver never installs).
                before = context.reach.counters.snapshot()
                if candidates:
                    survivors = downward_step(context, node_id, candidates, refined_children)
                else:
                    survivors = []
                after = context.reach.counters.snapshot()
                run = _NodeRun(
                    started=started,
                    input_size=len(candidates),
                    pending=0,
                    shards=0,
                    shard_results=[survivors],
                    lookups=after["lookups"] - before["lookups"],
                    entries=after["entries_scanned"] - before["entries_scanned"],
                )
                finalize(subtree, run)
                return

            contour_data, contour_lookups, contour_entries = self._dag_contours(
                context, query, node_id, subtree, contours, down
            )
            run = _NodeRun(
                started=started,
                input_size=len(candidates),
                pending=0,
                shards=0,
                lookups=contour_lookups,
                entries=contour_entries,
            )
            shard_count = self._shard_count(len(candidates))
            query_json = None
            if self.backend == "process":
                query_json = query_jsons.get(position)
                if query_json is None:
                    query_json = query_to_json(query)
                    query_jsons[position] = query_json
            probe_cache = self._wave_cache()
            for shard in self._partition.split(candidates, shard_count):
                if not shard:
                    continue
                future = self._submit(
                    pool, query, query_json, node_id, shard, refined_children,
                    contour_data, probe_cache,
                )
                run.pending += 1
                run.shards += 1
                in_flight[future] = subtree.fingerprint
            stats.parallel_shard_tasks += run.shards
            runs[subtree.fingerprint] = run

        def finalize(subtree, run: _NodeRun) -> None:
            position, node_id = subtree.exemplar
            stats = stats_by_plan[position]
            survivors = merge_survivors(run.shard_results)
            down[subtree.fingerprint] = tuple(survivors)
            if subtree_cache is not None:
                subtree_cache.put(subtree.fingerprint, down[subtree.fingerprint])
            elapsed = time.perf_counter() - run.started
            stats.phase_seconds["prune_downward"] = (
                stats.phase_seconds.get("prune_downward", 0.0) + elapsed
            )
            stats.downward_prune_ops += 1
            stats.index_lookups += run.lookups
            stats.index_entries += run.entries
            stats.operator_stats.append(
                OperatorStats(
                    op="DownwardPrune",
                    target=node_id,
                    input_size=run.input_size,
                    output_size=len(survivors),
                    seconds=elapsed,
                    index_lookups=run.lookups,
                    index_entries=run.entries,
                    note="shared-parallel"
                    + (f" x{run.shards}" if run.shards else " inline"),
                )
            )

        while remaining or in_flight:
            eligible = [
                subtree
                for fingerprint, subtree in sorted(remaining.items())
                if all(child in down for child in subtree.children)
            ]
            for subtree in eligible:
                del remaining[subtree.fingerprint]
                dispatch(subtree)
            if not in_flight:
                if remaining and not eligible:  # pragma: no cover
                    raise RuntimeError("shared-plan DAG frontier stalled")
                continue
            done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
            for future in sorted(done, key=lambda f: in_flight[f]):
                fingerprint = in_flight.pop(future)
                subtree = subtree_by_fp[fingerprint]
                run = runs[fingerprint]
                survivors, lookups, entries, raw_label = future.result()
                run.shard_results.append(survivors)
                run.lookups += lookups
                run.entries += entries
                workers.count(stats_by_plan[subtree.exemplar[0]], raw_label)
                run.pending -= 1
                if run.pending == 0:
                    finalize(subtree, run)
        return down

    # ------------------------------------------------------------------
    # Dispatch helpers
    # ------------------------------------------------------------------
    def _shard_count(self, num_candidates: int) -> int:
        by_size = -(-num_candidates // self.min_shard_size)  # ceil
        return max(1, min(self.num_shards, by_size))

    def _dispatch_node(self, state, node_id, pool, query_json, pump: _TaskPump, runs) -> None:
        stats, query = state.stats, state.query
        candidates = state.mats[node_id]
        children = query.children[node_id]
        started = time.perf_counter()
        context = state.context
        if not children or not candidates:
            # Leaf (constant-fext) or empty set: inline, like the serial
            # op.  An empty set refines to the empty set without a
            # Procedure-6 visit (the visit would read child contours this
            # driver never installs).
            before = context.reach.counters.snapshot()
            if candidates:
                refined_children = {child: state.down[child] for child in children}
                survivors = downward_step(context, node_id, list(candidates), refined_children)
            else:
                survivors = []
            after = context.reach.counters.snapshot()
            run = _NodeRun(
                started=started,
                input_size=len(candidates),
                pending=0,
                shards=0,
                shard_results=[survivors],
                lookups=after["lookups"] - before["lookups"],
                entries=after["entries_scanned"] - before["entries_scanned"],
            )
            backbone = {n for n in query.nodes if query.nodes[n].is_backbone}
            self._finalize_node(state, node_id, run, backbone, note="parallel inline")
            return

        before = context.reach.counters.snapshot()
        contour_data = None
        if context.index is not None:
            data = {}
            for child_id in children:
                if query.edge_type(child_id) is EdgeType.DESCENDANT:
                    contour = build_pred_contour(context, state.down[child_id])
                    data[child_id] = contour.data
            contour_data = data or None
        after = context.reach.counters.snapshot()
        refined_children = {child: state.down[child] for child in children}
        run = _NodeRun(
            started=started,
            input_size=len(candidates),
            pending=0,
            shards=0,
            lookups=after["lookups"] - before["lookups"],
            entries=after["entries_scanned"] - before["entries_scanned"],
        )
        probe_cache = self._wave_cache()
        shards = [
            shard
            for shard in self._partition.split(candidates, self._shard_count(len(candidates)))
            if shard
        ]
        # LPT: queue the skewed shard first so it starts as early as
        # possible when stealing caps the in-flight count.
        shards.sort(key=len, reverse=True)
        for shard in shards:
            pump.add(
                node_id,
                lambda shard=shard: self._submit(
                    pool, query, query_json, node_id, shard, refined_children,
                    contour_data, probe_cache,
                ),
            )
            run.pending += 1
            run.shards += 1
        stats.parallel_shard_tasks += run.shards
        runs[node_id] = run

    def _wave_cache(self):
        """A per-wave :class:`~repro.graph.partition.ContourProbeCache`.

        Only the thread and serial backends share driver memory with
        their tasks; process workers get no cache."""
        return None if self.backend == "process" else self._partition.wave_cache()

    def _submit(
        self, pool, query, query_json, node_id, shard, refined_children, contour_data,
        probe_cache=None,
    ) -> Future:
        if self.backend == "process":
            return pool.submit(
                _process_shard_task, query_json, node_id, shard, refined_children, contour_data
            )
        if self.backend == "thread":
            graph, reach = self.engine.graph, self.engine.reachability
            return pool.submit(
                lambda: (
                    *_run_shard(
                        graph, reach, query, node_id, shard, refined_children, contour_data,
                        probe_cache,
                    ),
                    threading.current_thread().name,
                )
            )
        future: Future = Future()
        future.set_result(
            (
                *_run_shard(
                    self.engine.graph,
                    self.engine.reachability,
                    query,
                    node_id,
                    shard,
                    refined_children,
                    contour_data,
                    probe_cache,
                ),
                "serial",
            )
        )
        return future

    def _finalize_node(self, state, node_id, run: _NodeRun, backbone, note: str) -> None:
        stats = state.stats
        survivors = merge_survivors(run.shard_results)
        state.down[node_id] = survivors
        stats.candidates_after_downward[node_id] = len(survivors)
        stats.downward_prune_ops += 1
        stats.index_lookups += run.lookups
        stats.index_entries += run.entries
        record = OperatorStats(
            op="DownwardPrune",
            target=node_id,
            input_size=run.input_size,
            output_size=len(survivors),
            seconds=time.perf_counter() - run.started,
            index_lookups=run.lookups,
            index_entries=run.entries,
            note=note + (f" x{run.shards}" if run.shards else ""),
        )
        stats.operator_stats.append(record)
        if node_id in backbone and not survivors:
            # Every match embeds every backbone node (same argument as
            # the adaptive early exit): the answer is already empty.
            record.note += " early-exit"
            state.finish_empty()

    def _dag_contours(self, context, query, node_id, subtree, contours, down):
        """AD-child contour data for one DAG dispatch, cached per child
        fingerprint (a contour depends only on the child's survivor set,
        which the fingerprint identifies across the whole batch)."""
        if context.index is None:
            return None, 0, 0
        before = context.reach.counters.snapshot()
        fingerprints = dict(zip(query.children[node_id], subtree.children))
        data = {}
        for child_id in query.children[node_id]:
            if query.edge_type(child_id) is not EdgeType.DESCENDANT:
                continue
            child_fp = fingerprints[child_id]
            cached = contours.get(child_fp)
            if cached is None:
                cached = build_pred_contour(context, list(down[child_fp])).data
                contours[child_fp] = cached
            data[child_id] = cached
        after = context.reach.counters.snapshot()
        return (
            data or None,
            after["lookups"] - before["lookups"],
            after["entries_scanned"] - before["entries_scanned"],
        )


class _WorkerLabels:
    """Normalizes raw worker labels to ``w0``, ``w1``, ... per execution."""

    def __init__(self):
        self._labels: dict[str, str] = {}

    def count(self, stats: EvaluationStats, raw_label: str) -> None:
        label = self._labels.get(raw_label)
        if label is None:
            label = f"w{len(self._labels)}"
            self._labels[raw_label] = label
        stats.parallel_worker_tasks[label] = stats.parallel_worker_tasks.get(label, 0) + 1
