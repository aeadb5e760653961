"""The traced run: per-layer metrics, one span file per workload.

Never mixed into the end-to-end rounds.  The harness drives each layer's
public functions itself — ``query_from_json`` + ``query_fingerprint`` →
``normalize`` → ``build_logical_plan`` → ``build_physical_plan`` → the
plan's operators one by one over an ``ExecutionState`` — and records a
span ``{name, start, end, parent, request}`` around every call.  Spans
stay in memory and are written to ``out/trace_<workload>.json`` at the
end; a layer's self time is its span minus the spans it caused.  Counts
come from ``EvaluationStats``, ``IndexCounters.snapshot()`` and
``cache_info()``.  Layer timings are speed-normalised like the
end-to-end ones (unit ``nms``), so two traced runs compare.

A few untraced rounds run first for the ``raw.*`` diagnostics; the
same operations replayed through a ``QuerySession`` in-process give the
``session.*`` figures and the base of ``trace.overhead_share``.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import time
from contextlib import contextmanager
from pathlib import Path

from repro.engine import GTEA, EvaluationStats, ExecutionState, QuerySession, build_gtea_operators
from repro.engine.operators import instantiate_operators
from repro.graph.stats import graph_stats
from repro.plan import (
    PARTIAL_FOOTPRINT_FRACTION,
    CompiledPlan,
    build_logical_plan,
    build_physical_plan,
    choose_index,
    normalize,
)
from repro.query.naive import candidate_nodes
from repro.query.serialize import predicate_key, query_fingerprint, query_from_json
from repro.reachability import build_reachability
from repro.reachability.partial import Footprint, build_partial_reachability
from repro.serve import QueryServer, serve_tcp
from repro.store import graph_fingerprint

from method import Calibrator, median
from rounds import COLD_KERNEL_RUNS, ServerProcess, replay
from workloads import Op, apply_mutation, make_graph

UNTRACED_ROUNDS = 2
#: distinct queries the route and serve probes replay.
PROBE_QUERIES = 30
PROBE_MUTATIONS = 10

_ENGINE_SPANS = {
    "CandidateScan": "engine.scan",
    "DownwardPrune": "engine.downward",
    "UpwardPrune": "engine.upward",
    "BuildMatchingGraph": "engine.matching",
    "CollectResults": "engine.collect",
    "BaselineDelegate": "engine.baseline",
    "ConstantEmpty": "engine.collect",
}
#: span name -> per-layer metric holding its mean self time per query.
_SPAN_METRICS = {
    "query.parse": "query.parse_ms",
    "plan.normalize": "plan.normalize_ms",
    "plan.logical": "plan.logical_ms",
    "plan.physical": "plan.physical_ms",
    "engine.scan": "engine.scan_ms",
    "engine.downward": "engine.downward_ms",
    "engine.upward": "engine.upward_ms",
    "engine.matching": "engine.matching_ms",
    "engine.collect": "engine.collect_ms",
}


class Tracer:
    """In-memory spans; ``parent`` is the index of the causing span."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, request: int | None = None):
        parent = self._open[-1] if self._open else None
        if request is None and parent is not None:
            request = self.spans[parent]["request"]
        record = {"name": name, "start": 0.0, "end": 0.0, "parent": parent, "request": request}
        self._open.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_seconds(self) -> list[float]:
        """Per span: its duration minus the durations of its children."""
        own = [span["end"] - span["start"] for span in self.spans]
        for span in self.spans:
            if span["parent"] is not None:
                own[span["parent"]] -= span["end"] - span["start"]
        return own

    def write(self, path: Path) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans}, handle)


class TracedPipeline:
    """The in-process pipeline of ``QuerySession.evaluate`` with every
    layer call made — and spanned — by the harness."""

    def __init__(self, graph, tracer: Tracer):
        self.graph = graph
        self.tracer = tracer
        self.stats = None  # graph statistics, per graph version
        self.version = graph.version
        self.full: dict[str, object] = {}  # pooled full-scope services
        self.partial: dict[tuple, object] = {}
        #: ``mat(u)`` per predicate, shared between queries the way the
        #: session's candidate cache shares it.
        self.candidates: dict[str, tuple] = {}
        self.builds = 0
        self.partial_builds = 0
        self.index_sizes: list[int] = []
        self.probes = 0
        self.counts = {"candidates_initial": 0, "candidates_after_downward": 0,
                       "downward_prune_ops": 0, "result_rows": 0}

    def _candidate_nodes(self, query, node_id: str) -> list[int]:
        key = predicate_key(query.attribute(node_id))
        nodes = self.candidates.get(key)
        if nodes is None:
            nodes = self.candidates[key] = tuple(candidate_nodes(self.graph, query, node_id))
        return list(nodes)

    def _build(self, factory, *args):
        with self.tracer.span("reachability.build"):
            service = factory(self.graph, *args)
        self.builds += 1
        self.index_sizes.append(service.index.index_size())
        return service

    def _reachability(self, plan: CompiledPlan):
        physical = plan.physical
        name = physical.index_name
        if physical.index_scope == "partial" and physical.executor == "gtea":
            with self.tracer.span("reachability.footprint"):
                seeds = set()
                for node_id in plan.query.nodes:
                    seeds.update(self._candidate_nodes(plan.query, node_id))
                budget = max(1, int(PARTIAL_FOOTPRINT_FRACTION * self.graph.num_nodes))
                footprint = Footprint.from_seeds(self.graph, seeds, budget=budget)
            if footprint is not None:
                key = (physical.scoped_index_name, footprint.fingerprint)
                if key not in self.partial:
                    self.partial[key] = self._build(build_partial_reachability, footprint, name)
                    self.partial_builds += 1
                return self.partial[key]
            name = choose_index(self.stats)  # cone over budget: the ladder pick
        if name not in self.full:
            self.full[name] = self._build(build_reachability, name)
        return self.full[name]

    def evaluate(self, text: str, request: int):
        span = self.tracer.span
        graph = self.graph
        with span("request", request):
            with span("query.parse"):
                query = query_from_json(text)
                query_fingerprint(query)
            if graph.version != self.version:  # what invalidation drops
                self.version = graph.version
                self.stats = None
                self.full.clear()
                self.partial.clear()
                self.candidates.clear()
            if self.stats is None:
                with span("graph.stats"):
                    self.stats = graph_stats(graph)
            with span("plan.normalize"):
                normalized = normalize(query)
            with span("plan.logical"):
                logical = build_logical_plan(graph, normalized)
            with span("plan.physical"):
                physical = build_physical_plan(
                    graph, normalized, logical, index="auto", stats=self.stats,
                    pooled=tuple(self.full),
                )
            plan = CompiledPlan(normalized=normalized, logical=logical, physical=physical)
            if plan.unsatisfiable:
                return set()
            reach = self._reachability(plan)
            engine = GTEA(graph, reachability=reach)
            stats = EvaluationStats()
            state = ExecutionState(
                engine, plan.query, stats, candidate_provider=self._candidate_nodes
            )
            if physical.executor == "gtea" and not physical.covers_query(plan.query):
                operators = build_gtea_operators(plan.query.bottom_up())
            else:
                operators = instantiate_operators(physical.operators)
            lookups = reach.counters.snapshot()["lookups"]
            for operator in operators:
                with span(_ENGINE_SPANS[operator.name]):
                    operator.run(state)
                if state.finished:
                    break
            self.probes += reach.counters.snapshot()["lookups"] - lookups
            self.counts["candidates_initial"] += sum(stats.candidates_initial.values())
            self.counts["candidates_after_downward"] += sum(
                stats.candidates_after_downward.values()
            )
            self.counts["downward_prune_ops"] += stats.downward_prune_ops
            self.counts["result_rows"] += stats.result_count
            return state.answer


def traced_round(inputs, calib: Calibrator, tracer: Tracer):
    """One round through :class:`TracedPipeline`.  A query line is traced
    at its first occurrence per graph version (the repeats are what the
    session's result cache absorbs).  Returns the per-layer means, and per
    traced position the normalised ``(request seconds, layer seconds)``."""
    graph = make_graph(inputs.name)
    pipeline = TracedPipeline(graph, tracer)
    seen: set[tuple[int, str]] = set()

    def run_op(position: int, op: Op) -> bool:
        if op.kind == "mutate":
            with tracer.span("graph.mutate", position):
                apply_mutation(graph, op)
            return True
        if (graph.version, op.text) in seen:
            return True
        seen.add((graph.version, op.text))
        return pipeline.evaluate(op.text, position) == op.reference

    replayed = replay(inputs.ops, calib, run_op)
    totals: dict[str, float] = {}
    by_position: dict[int, list[float]] = {}
    for span, own in zip(tracer.spans, tracer.self_seconds()):
        position = span["request"]
        factor = replayed[position][3]
        if span["name"] == "request":
            by_position.setdefault(position, [0.0, 0.0])[0] = (span["end"] - span["start"]) / factor
        elif span["name"] != "graph.mutate":
            # Index build, footprint and graph statistics are the deferred
            # work a session does under a miss: attributed layer time.
            by_position.setdefault(position, [0.0, 0.0])[1] += own / factor
        totals[span["name"]] = totals.get(span["name"], 0.0) + own / factor
    queries = len(by_position)
    mutations = len(inputs.ops) - inputs.query_ops
    values = {
        metric: totals.get(name, 0.0) * 1000.0 / queries for name, metric in _SPAN_METRICS.items()
    }
    values.update({f"engine.{name}": total / queries for name, total in pipeline.counts.items()})
    values["reachability.build_ms"] = (
        totals.get("reachability.build", 0.0) * 1000.0 / max(1, pipeline.builds)
    )
    values["reachability.index_size"] = float(median(pipeline.index_sizes))
    values["reachability.probes_per_query"] = pipeline.probes / queries
    values["reachability.partial_builds_per_epoch"] = pipeline.partial_builds / max(1, mutations)
    failed = sum(1 for _, _, ok, _ in replayed if not ok)
    return values, by_position, failed


class Probe:
    """Speed-normalised timing of one call, kernel on each side."""

    def __init__(self, calib: Calibrator):
        self.calib = calib

    def __call__(self, function, *args, **kwargs):
        before = self.calib.sample_ms(COLD_KERNEL_RUNS)
        started = time.perf_counter()
        outcome = function(*args, **kwargs)
        seconds = time.perf_counter() - started
        after = self.calib.sample_ms(COLD_KERNEL_RUNS)
        return outcome, seconds / self.calib.factor([before, after])


def session_replay(bench, store_for):
    """The round through ``QuerySession.evaluate_with_stats`` in-process —
    two sessions taking turns on ``serve_zipf``, like the server's two
    workers — for the ``session.*`` and ``store.*`` layer metrics."""
    inputs, calib = bench.inputs, bench.calib
    probe = Probe(calib)
    graph = make_graph(inputs.name)
    workers = 2 if inputs.name == "serve_zipf" else 1
    sessions = [QuerySession(graph, store=store_for(f"replay-{w}")) for w in range(workers)]
    miss_at: set[int] = set()

    def run_op(position: int, op: Op) -> bool:
        if op.kind == "mutate":
            apply_mutation(graph, op)
            return True
        answer, stats = sessions[position % workers].evaluate_with_stats(op.text)
        if not stats.result_cache_hits:
            miss_at.add(position)
        return answer == op.reference

    replayed = replay(inputs.ops, calib, run_op)
    session_ns = [seconds / factor for _, seconds, _, factor in replayed]
    misses = [session_ns[position] for position in miss_at]
    failed = sum(1 for _, _, ok, _ in replayed if not ok)
    session = sessions[0]
    last_queries = [op for op in inputs.ops if op.kind == "query"][-PROBE_QUERIES:]

    def evaluate_hits():
        for op in last_queries:
            session.evaluate(op.text)

    evaluate_hits()  # after a mutation the first pass refills the cache
    _, hit_s = probe(evaluate_hits)
    ratios = {}
    for cache in ("plan", "result", "candidate"):
        hits = sum(s.cache_info()[cache]["hits"] for s in sessions)
        total = hits + sum(s.cache_info()[cache]["misses"] for s in sessions)
        ratios[f"session.{cache}_cache_hit_ratio"] = hits / total if total else 0.0

    _, fingerprint_s = probe(graph_fingerprint, graph)
    _, persist_s = probe(session.persist)
    store_root = Path(session.store.root)
    store_bytes = sum(f.stat().st_size for f in store_root.rglob("*") if f.is_file())

    has_index = "indexes" in session.store.kinds(session.store_fingerprint)

    def rehydrate():
        fresh = QuerySession(graph, store=store_root)
        if has_index:
            fresh.reachability()  # consume the deferred index load too
        fresh.close()

    _, rehydrate_s = probe(rehydrate)
    _, invalidate_s = probe(session.invalidate)
    for each in sessions:
        each.close()
    values = {
        "session.hit_us": hit_s * 1e6 / len(last_queries),
        "session.miss_ms": sum(misses) * 1000.0 / len(misses),
        "session.invalidate_ms": invalidate_s * 1000.0,
        **ratios,
        "store.fingerprint_ms": fingerprint_s * 1000.0,
        "store.persist_ms": persist_s * 1000.0,
        "store.rehydrate_ms": rehydrate_s * 1000.0,
        "store.bytes": float(store_bytes),
    }
    return values, miss_at, session_ns, failed, store_root


def graph_probes(bench) -> dict[str, float]:
    """``datasets.generate_s``, ``graph.stats_ms``, ``graph.mutate_us``."""
    inputs = bench.inputs
    probe = Probe(bench.calib)
    generate = []
    for _ in range(3):
        graph, seconds = probe(make_graph, inputs.name)
        generate.append(seconds)
    stats = [probe(graph_stats, graph)[1] for _ in range(3)]
    mutations = [op for op in inputs.ops if op.kind == "mutate"] or [
        Op("mutate", attrs=(("label", "e2e_probe"),), targets=(0, 1))
    ] * PROBE_MUTATIONS

    def mutate():
        for op in mutations:
            apply_mutation(graph, op)

    _, mutate_s = probe(mutate)
    return {
        "datasets.generate_s": median(generate),
        "graph.stats_ms": median(stats) * 1000.0,
        "graph.mutate_us": mutate_s * 1e6 / len(mutations),
    }


def route_probes(bench) -> dict[str, float]:
    """The same distinct queries under each opt-in ``QuerySession`` flag
    (all off by default): the baseline for ROADMAP's one-route item."""
    inputs = bench.inputs
    probe = Probe(bench.calib)
    warm, *queries = inputs.distinct[: PROBE_QUERIES + 1]
    values = {}
    for name, flags in (
        ("codegen", {"codegen": "auto"}),
        ("parallel2", {"parallel": 2}),
        ("adaptive", {"adaptive": True}),
        ("batch", {}),
    ):
        with QuerySession(make_graph(inputs.name), **flags) as session:
            session.evaluate(warm)  # the index build is not a route's cost
            if name == "batch":
                _, seconds = probe(session.evaluate_many, queries)
                values["route.batch.ms_per_query"] = seconds * 1000.0 / len(queries)
            else:
                _, seconds = probe(lambda: [session.evaluate(text) for text in queries])
                values[f"route.{name}.miss_ms"] = seconds * 1000.0 / len(queries)
    return values


async def _serve_in_process(graph, queries: list[str], probe: Probe) -> dict[str, float]:
    server = QueryServer(graph, workers=1)  # one worker: every repeat is a hit
    await server.start()
    try:
        for text in queries:
            await server.submit(text)
        before = probe.calib.sample_ms(COLD_KERNEL_RUNS)
        started = time.perf_counter()
        for text in queries:
            await server.submit(text)
        submit_s = time.perf_counter() - started
        middle = probe.calib.sample_ms(COLD_KERNEL_RUNS)
        tcp = await serve_tcp(server, port=0)
        try:
            host, port = tcp.sockets[0].getsockname()[:2]
            reader, writer = await asyncio.open_connection(host, port)
            response_bytes = 0
            started = time.perf_counter()
            for text in queries:
                writer.write(json.dumps({"query": text}).encode("utf-8") + b"\n")
                await writer.drain()
                response_bytes += len(await reader.readline())
            wire_s = time.perf_counter() - started
            after = probe.calib.sample_ms(COLD_KERNEL_RUNS)
            writer.close()
            await writer.wait_closed()
        finally:
            tcp.close()
            await tcp.wait_closed()
    finally:
        await server.stop()
    submit_us = submit_s / probe.calib.factor([before, middle]) * 1e6 / len(queries)
    round_trip_us = wire_s / probe.calib.factor([middle, after]) * 1e6 / len(queries)
    return {
        "serve.submit_hit_us": submit_us,
        "serve.wire_hit_us": round_trip_us - submit_us,
        "serve.render_bytes_per_response": response_bytes / len(queries),
    }


def serve_probes(bench, repo: Path, store: Path) -> tuple[dict[str, float], int]:
    """Spawn-to-ready of ``python -m repro.serve`` on ``store`` and the
    in-process submit / wire costs of a cache hit; ``(values, failed)``."""
    inputs = bench.inputs
    probe = Probe(bench.calib)
    spawned: list[ServerProcess] = []

    def spawn_until_ready() -> bool:
        spawned.append(ServerProcess(repo, store, bench.log_path))
        return spawned[0].wait_ready()

    try:
        ready, spawn_s = probe(spawn_until_ready)
    finally:
        for server in spawned:
            server.stop()
    values = asyncio.run(
        _serve_in_process(make_graph(inputs.name), inputs.distinct[:PROBE_QUERIES], probe)
    )
    values["serve.spawn_ready_s"] = spawn_s
    return values, 0 if ready else 1


def traced_run(bench, repo: Path, out_dir: Path):
    """The whole traced run of one workload: ``(untraced rounds, values)``."""
    inputs, calib = bench.inputs, bench.calib
    rounds = [bench.round() for _ in range(UNTRACED_ROUNDS)]
    tracer = Tracer()
    values, traced, failed = traced_round(inputs, calib, tracer)

    def store_for(name: str) -> Path:
        path = bench.scratch / name
        if bench.primed is not None:
            shutil.copytree(bench.primed, path)
        return path

    session_values, miss_at, session_ns, session_failed, store = session_replay(bench, store_for)
    values.update(session_values)
    # Over the operations both the session and the pipeline computed in
    # full: the share of the session's time the layers do not account
    # for, and what the span bookkeeping adds on top of the same work.
    both = [position for position in traced if position in miss_at]
    spent = sum(session_ns[position] for position in both)
    values["session.unattributed_share"] = 1.0 - sum(traced[p][1] for p in both) / spent
    values["trace.overhead_share"] = sum(traced[p][0] for p in both) / spent - 1.0
    values.update(graph_probes(bench))
    values.update(route_probes(bench))
    serve_values, serve_failed = serve_probes(bench, repo, store)
    values.update(serve_values)
    tracer.write(out_dir / f"trace_{inputs.name}.json")
    # The traced round, the session replay and the server spawn count as
    # operations of the run: a failure there makes the run incorrect.
    rounds[0].attempted += 2 * len(inputs.ops) + 1
    rounds[0].failed += failed + session_failed + serve_failed
    return rounds, values
