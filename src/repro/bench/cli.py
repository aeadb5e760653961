"""``repro-bench`` — command-line front end for the bench harness.

Subcommands:

* ``session-cache`` — the warm-vs-cold session comparison of
  ``benchmarks/bench_session_cache.py`` on a generated XMark-like graph;
* ``stats`` — dataset statistics (Table 1 style) for a generated graph;
* ``explain`` — the compiled plan (normalize → logical → physical) of a
  paper workload query, or of a serialized GTPQ passed as JSON;
* ``shared`` — batch evaluation through the shared-plan DAG vs the
  per-query path on a synthetic overlapping workload, plus the batch's
  sharing structure (``QuerySession.explain_batch``);
* ``adaptive`` — the adaptive operator pipeline (runtime prune
  reordering + backbone-empty early exit) vs the static plan order on
  the skewed workload whose label statistics mislead the estimates;
* ``codegen`` — specialized plan functions (``repro.plan.codegen``)
  vs the interpreted operator pipeline, warm, on the Fig. 7 queries,
  with exact-answer checks and an optional speedup floor;
* ``index-choice`` — per-query index costing (``repro.plan.cost``)
  building lazily-pooled partial indexes over the query's candidate
  footprint vs a pinned full-graph build, cold first answer on the
  enclave workload, with exact-answer checks and an optional speedup
  floor;
* ``parallel`` — sharded, concurrent downward-prune execution
  (``repro.engine.parallel``) swept over worker counts on the funnel
  workload, with exact-answer and byte-identical-survivor checks
  against the single-shard run;
* ``serving`` — the persistence + serving tier: a cross-process
  warm-restart race through ``python -m repro.store.restart`` (cold
  process persists, warm process rehydrates; answers must be
  digest-identical) followed by a concurrent Fig. 7 burst against a
  :class:`repro.serve.QueryServer` pool, reporting qps and p50/p99
  latency, with an optional first-answer speedup floor.

Installed as a console script by ``pip install .``; run ``repro-bench
--help`` for options.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import pathlib
import random
import subprocess
import sys
import tempfile
import time

from ..datasets import (
    fig7_query,
    funnel_workload,
    generate_xmark,
    index_choice_workload,
    random_labeled_graph,
    random_query_batch,
    skewed_workload,
)
from ..engine import QuerySession
from ..graph import graph_stats
from ..reachability import select_auto_index
from .harness import (
    format_table,
    measure_adaptive,
    measure_codegen,
    measure_index_choice,
    measure_parallel,
    measure_warm_cold,
)


def _build_workload(repeats: int):
    """Fig. 7 queries, repeated — the heavy-repeated-traffic shape."""
    variants = [
        fig7_query("q1", person_group=2, item_group=4, seller_group=6),
        fig7_query("q2", person_group=2, item_group=4, seller_group=6),
        fig7_query("q3", person_group=2, item_group=4, seller_group=6),
    ]
    return [variants[i % len(variants)] for i in range(repeats * len(variants))]


def _cmd_session_cache(args: argparse.Namespace) -> int:
    if args.repeats < 1:
        print("repro-bench: error: --repeats must be >= 1", file=sys.stderr)
        return 2
    dataset = generate_xmark(scale=args.scale, seed=args.seed)
    workload = _build_workload(args.repeats)
    try:
        measurement = measure_warm_cold(dataset.graph, workload, index=args.index)
    except ValueError as error:  # e.g. an unknown --index name
        print(f"repro-bench: error: {error}", file=sys.stderr)
        return 2
    row = measurement.row()
    print(format_table(
        f"QuerySession warm vs cold ({len(workload)} queries, "
        f"XMark scale {args.scale})",
        list(row),
        [list(row.values())],
    ))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    dataset = generate_xmark(scale=args.scale, seed=args.seed)
    stats = graph_stats(dataset.graph)
    row = stats.row()
    row["auto_index"] = select_auto_index(stats)
    print(format_table(
        f"XMark-like dataset, scale {args.scale}",
        list(row),
        [list(row.values())],
    ))
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    dataset = generate_xmark(scale=args.scale, seed=args.seed)
    session = QuerySession(dataset.graph, index=args.index)
    if args.query_json is not None:
        try:
            with open(args.query_json, encoding="utf-8") as handle:
                query = handle.read()
        except OSError as error:
            print(f"repro-bench: error: {error}", file=sys.stderr)
            return 2
    else:
        query = fig7_query(
            args.variant, person_group=2, item_group=4, seller_group=6
        )
    try:
        text = session.explain(query)
    except (ValueError, KeyError, TypeError) as error:
        print(f"repro-bench: error: cannot compile query: {error}", file=sys.stderr)
        return 2
    title = (
        f"compiled plan ({args.query_json or f'Fig. 7 {args.variant}'}, "
        f"XMark scale {args.scale}, index={args.index})"
    )
    print(title)
    print("-" * len(title))
    print(text)
    return 0


def _cmd_shared(args: argparse.Namespace) -> int:
    if args.batch < 1 or args.nodes < 2 or not 0.0 <= args.overlap <= 1.0:
        print(
            "repro-bench: error: --batch must be >= 1, --nodes >= 2, "
            "and --overlap in [0, 1]",
            file=sys.stderr,
        )
        return 2
    rng = random.Random(args.seed)
    graph = random_labeled_graph(
        args.nodes, rng, labels="abcdef", edge_prob=2.2 / args.nodes
    )
    batch = random_query_batch(
        graph, rng, batch_size=args.batch, size_range=(3, 6), overlap=args.overlap
    )

    shared_session = QuerySession(graph, result_cache_size=0)
    started = time.perf_counter()
    shared = shared_session.evaluate_many(batch)
    shared_ms = 1e3 * (time.perf_counter() - started)
    started = time.perf_counter()
    isolated = QuerySession(graph, result_cache_size=0).evaluate_many(
        batch, share=False
    )
    isolated_ms = 1e3 * (time.perf_counter() - started)
    if shared.results != isolated.results:
        print(
            "repro-bench: error: shared and per-query paths disagree "
            "(this is a bug — please report the seed)",
            file=sys.stderr,
        )
        return 1

    ops_shared = shared.stats.downward_prune_ops
    ops_isolated = isolated.stats.downward_prune_ops
    saved = 1.0 - ops_shared / ops_isolated if ops_isolated else 0.0
    print(format_table(
        f"Shared-plan batch vs per-query compilation "
        f"({args.batch} queries, overlap {args.overlap:.0%}, n={args.nodes})",
        ["path", "prune_ops", "shared_occ", "subtree_hits", "ms"],
        [
            ["per-query", ops_isolated, 0, 0, round(isolated_ms, 2)],
            [
                "shared-dag",
                ops_shared,
                shared.stats.batch_shared_subtrees,
                shared.stats.subtree_cache_hits,
                round(shared_ms, 2),
            ],
        ],
    ))
    print(f"prune work saved: {saved:.0%}")
    if args.explain:
        # The timed session's plan cache already holds every compiled
        # plan, so this renders without re-running the optimizer.
        print()
        print(shared_session.explain_batch(batch))
    return 0


def _cmd_adaptive(args: argparse.Namespace) -> int:
    if args.workload_scale < 1 or args.repeats < 1:
        print(
            "repro-bench: error: --workload-scale and --repeats must be >= 1",
            file=sys.stderr,
        )
        return 2
    graph, queries = skewed_workload(
        scale=args.workload_scale, repeats=args.repeats, seed=args.seed
    )
    measurement = measure_adaptive(graph, queries)
    if measurement.mismatches:
        print(
            "repro-bench: error: adaptive and static executors disagree "
            "(this is a bug — please report the seed)",
            file=sys.stderr,
        )
        return 1
    row = measurement.row()
    print(format_table(
        f"Adaptive vs static prune order ({len(queries)} skewed queries, "
        f"n={graph.num_nodes})",
        list(row),
        [list(row.values())],
    ))
    print(f"prune ops saved: {measurement.prune_ops_saved:.0%}")
    return 0


def _cmd_codegen(args: argparse.Namespace) -> int:
    if args.rounds < 1:
        print("repro-bench: error: --rounds must be >= 1", file=sys.stderr)
        return 2
    graph = generate_xmark(scale=args.scale, seed=args.seed).graph
    queries = [
        (variant, fig7_query(variant, person_group=2, item_group=4, seller_group=6))
        for variant in ("q1", "q2", "q3")
    ]
    measurement = measure_codegen(graph, queries, rounds=args.rounds)
    if measurement.mismatches:
        print(
            "repro-bench: error: codegen and interpreted execution disagree "
            "(this is a bug — please report the seed)",
            file=sys.stderr,
        )
        return 1
    if measurement.uncompiled:
        print(
            f"repro-bench: error: {measurement.uncompiled} quer(ies) fell back "
            "to the interpreted pipeline on the planner workload",
            file=sys.stderr,
        )
        return 1
    rows = measurement.rows()
    print(format_table(
        f"Plan codegen vs interpreted pipeline (warm, Fig. 7 queries, "
        f"n={graph.num_nodes})",
        list(rows[0]),
        [list(row.values()) for row in rows],
    ))
    print(f"aggregate warm speedup: {measurement.speedup:.2f}x")
    if args.enforce_floor and measurement.speedup < args.floor:
        print(
            f"repro-bench: error: aggregate speedup {measurement.speedup:.2f}x "
            f"is below the floor ({args.floor:.2f}x)",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_index_choice(args: argparse.Namespace) -> int:
    if args.rounds < 1 or args.workload_scale < 1 or args.queries < 1:
        print(
            "repro-bench: error: --rounds, --workload-scale and --queries "
            "must be >= 1",
            file=sys.stderr,
        )
        return 2
    graph, queries = index_choice_workload(
        scale=args.workload_scale, queries=args.queries, seed=args.seed
    )
    named = [(f"q{position}", query) for position, query in enumerate(queries)]
    measurement = measure_index_choice(graph, named, rounds=args.rounds)
    if measurement.mismatches:
        print(
            "repro-bench: error: partial and full-index sessions disagree "
            "(this is a bug — please report the seed)",
            file=sys.stderr,
        )
        return 1
    if measurement.fallbacks:
        print(
            f"repro-bench: error: {measurement.fallbacks} evaluation(s) fell "
            "back to a full index on the enclave workload",
            file=sys.stderr,
        )
        return 1
    rows = measurement.rows()
    print(format_table(
        f"Partial vs full index, cold first answer (enclave workload, "
        f"n={graph.num_nodes}, full={measurement.full_index})",
        list(rows[0]),
        [list(row.values()) for row in rows],
    ))
    print(f"aggregate cold first-answer speedup: {measurement.speedup:.2f}x")
    if args.enforce_floor and measurement.speedup < args.floor:
        print(
            f"repro-bench: error: aggregate speedup {measurement.speedup:.2f}x "
            f"is below the floor ({args.floor:.2f}x)",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_parallel(args: argparse.Namespace) -> int:
    if args.workload_scale < 1 or args.queries < 1:
        print(
            "repro-bench: error: --workload-scale and --queries must be >= 1",
            file=sys.stderr,
        )
        return 2
    workers = tuple(dict.fromkeys(args.workers))  # dedupe, keep order
    if any(count < 1 for count in workers) or 1 not in workers:
        print(
            "repro-bench: error: --workers must be positive and include 1 "
            "(the single-shard baseline)",
            file=sys.stderr,
        )
        return 2
    if args.floor_slack < 0.0:
        print("repro-bench: error: --floor-slack must be >= 0", file=sys.stderr)
        return 2
    graph, queries = funnel_workload(
        scale=args.workload_scale, queries=args.queries, seed=args.seed
    )
    try:
        measurement = measure_parallel(
            graph, queries, worker_counts=workers, backend=args.backend
        )
    except ValueError as error:  # e.g. an unknown --backend name
        print(f"repro-bench: error: {error}", file=sys.stderr)
        return 2
    if measurement.mismatches or measurement.survivor_mismatches:
        print(
            "repro-bench: error: sharded and serial execution disagree "
            "(this is a bug — please report the seed)",
            file=sys.stderr,
        )
        return 1
    rows = measurement.rows()
    print(format_table(
        f"Sharded pipeline, end to end ({len(queries)} funnel queries, "
        f"n={graph.num_nodes}, backend={measurement.backend}, "
        f"strategy={measurement.strategy})",
        list(rows[0]),
        [list(row.values()) for row in rows],
    ))
    top = max(workers)
    print(f"prune-phase speedup at {top} workers: {measurement.speedup(top):.2f}x")
    print(f"end-to-end wall speedup at {top} workers: {measurement.wall_speedup(top):.2f}x")
    if args.enforce_floor:
        if top >= 4 and _usable_cores() >= 4 and measurement.backend != "serial":
            # Real-concurrency floor: on a >= 4-core runner with a real
            # pool backend, the full sharded pipeline must clear an
            # end-to-end wall speedup at the top worker count.
            if measurement.wall_speedup(top) < args.floor:
                print(
                    f"repro-bench: error: end-to-end wall speedup at {top} "
                    f"workers ({measurement.wall_speedup(top):.2f}x) is below "
                    f"the {args.floor}x floor",
                    file=sys.stderr,
                )
                return 1
        else:
            # Fallback sanity floor: where real speedup is unattainable
            # (serial backend, few cores), concurrency must not *cost*
            # wall time beyond the slack.
            base = next(p for p in measurement.points if p.workers == 1)
            point = next(p for p in measurement.points if p.workers == top)
            budget = base.wall_seconds * (1.0 + args.floor_slack)
            if point.wall_seconds > budget:
                print(
                    f"repro-bench: error: wall time at {top} workers "
                    f"({point.wall_seconds * 1e3:.1f} ms) exceeds the "
                    f"single-shard budget ({budget * 1e3:.1f} ms)",
                    file=sys.stderr,
                )
                return 1
        if not _steal_sanity(graph, queries, top, args.backend):
            print(
                "repro-bench: error: no steals observed with shards > workers "
                "(the work-stealing deque is not draining)",
                file=sys.stderr,
            )
            return 1
    return 0


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def _steal_sanity(graph, queries, workers: int, backend: str) -> bool:
    """Do completions drain the pending deque when waves overflow?

    With ``shards = 2 * workers`` every non-inline prune wave enqueues
    more tasks than the in-flight cap, so ``parallel_steals`` must come
    out positive — deterministically, on every backend including
    ``"serial"``.
    """
    from ..engine import GTEA
    from ..engine.parallel import ParallelExecutor

    engine = GTEA(graph, index="auto")
    steals = 0
    executor = ParallelExecutor(
        engine, workers, backend=backend, shards=workers * 2, min_shard_size=1
    )
    try:
        for query in queries:
            _, stats = executor.execute(engine.compile(query))
            steals += stats.parallel_steals
    finally:
        executor.close()
    return steals > 0


def _restart_process(args: argparse.Namespace, store: str, *, persist: bool) -> dict:
    """One leg of the warm-restart race (a fresh interpreter); its report."""
    import repro

    env = dict(os.environ)
    package_root = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = package_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    command = [
        sys.executable, "-m", "repro.store.restart",
        "--store", store,
        "--scale", str(args.scale),
        "--seed", str(args.seed),
        "--codegen",
    ]
    if persist:
        command.append("--persist")
    result = subprocess.run(
        command, env=env, capture_output=True, text=True, check=True
    )
    return json.loads(result.stdout)


def _cmd_serving(args: argparse.Namespace) -> int:
    if args.workers < 1 or args.requests < 1:
        print(
            "repro-bench: error: --workers and --requests must be >= 1",
            file=sys.stderr,
        )
        return 2
    from ..serve import QueryServer
    from ..store.restart import fig7_workload

    store = args.store or tempfile.mkdtemp(prefix="repro-serving-")

    # Leg 1: the cross-process warm-restart race.  Each leg is a fresh
    # interpreter so the comparison measures real process start-up, not
    # an in-process cache.
    try:
        cold = _restart_process(args, store, persist=True)
        warm = _restart_process(args, store, persist=False)
    except subprocess.CalledProcessError as error:
        print(
            f"repro-bench: error: restart driver failed:\n{error.stderr}",
            file=sys.stderr,
        )
        return 1
    if warm["answer_digests"] != cold["answer_digests"]:
        print(
            "repro-bench: error: warm restart answered differently from the "
            "cold build (this is a bug — please report the seed)",
            file=sys.stderr,
        )
        return 1
    speedup = cold["first_answer_seconds"] / warm["first_answer_seconds"]

    # Leg 2: concurrent burst against the worker pool over the same store.
    graph = generate_xmark(scale=args.scale, seed=args.seed).graph
    queries = fig7_workload()

    async def burst() -> dict:
        server = QueryServer(
            graph, workers=args.workers, store=store, codegen="auto"
        )
        await server.start()
        for query in queries:  # warmup: compile/prime outside the timed burst
            await server.submit(query)
        server.stats.latencies.clear()
        server.stats.requests = 0
        started = time.perf_counter()
        await asyncio.gather(
            *[
                server.submit(queries[i % len(queries)])
                for i in range(args.requests)
            ]
        )
        wall = time.perf_counter() - started
        summary = server.stats.summary()
        await server.stop()
        summary["qps"] = round(summary["requests"] / wall, 1)
        return summary

    summary = asyncio.run(burst())
    if summary["errors"]:
        print(
            f"repro-bench: error: {summary['errors']} request(s) failed",
            file=sys.stderr,
        )
        return 1
    print(format_table(
        f"Serving tier ({args.workers} workers, {args.requests} concurrent "
        f"Fig. 7 requests, XMark scale {args.scale})",
        ["workers", "requests", "qps", "p50_ms", "p99_ms",
         "cold_first_ms", "warm_first_ms", "restart_speedup"],
        [[
            args.workers,
            summary["requests"],
            summary["qps"],
            summary["p50_ms"],
            summary["p99_ms"],
            round(cold["first_answer_seconds"] * 1e3, 1),
            round(warm["first_answer_seconds"] * 1e3, 1),
            round(speedup, 2),
        ]],
    ))
    rehydrated = sum(warm["rehydrated"].values())
    print(f"warm restart rehydrated {rehydrated} artifacts; "
          f"first answer {speedup:.2f}x faster than cold")
    if args.enforce_floor and speedup < args.floor:
        print(
            f"repro-bench: error: warm-restart speedup {speedup:.2f}x is "
            f"below the floor ({args.floor:.2f}x)",
            file=sys.stderr,
        )
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Benchmark harness for the GTPQ/GTEA reproduction.",
    )
    parser.add_argument("--scale", type=float, default=0.05,
                        help="XMark scale factor (default 0.05)")
    parser.add_argument("--seed", type=int, default=97)
    subparsers = parser.add_subparsers(dest="command", required=True)

    session = subparsers.add_parser(
        "session-cache", help="warm-vs-cold QuerySession comparison"
    )
    session.add_argument("--repeats", type=int, default=5,
                         help="repetitions of the Fig. 7 query triple")
    session.add_argument("--index", default="auto",
                         help="reachability index name (default: auto)")
    session.set_defaults(func=_cmd_session_cache)

    stats = subparsers.add_parser("stats", help="dataset statistics")
    stats.set_defaults(func=_cmd_stats)

    explain = subparsers.add_parser(
        "explain", help="compiled plan of a query (normalize/logical/physical)"
    )
    explain.add_argument("--variant", default="q3", choices=["q1", "q2", "q3"],
                         help="Fig. 7 query variant (default: q3)")
    explain.add_argument("--index", default="auto",
                         help="reachability index name (default: auto)")
    explain.add_argument("--query-json", metavar="FILE",
                         help="explain a serialized GTPQ (JSON file) instead")
    explain.set_defaults(func=_cmd_explain)

    shared = subparsers.add_parser(
        "shared", help="shared-plan batch evaluation vs per-query compilation"
    )
    shared.add_argument("--batch", type=int, default=24,
                        help="workload size (default 24)")
    shared.add_argument("--overlap", type=float, default=0.6,
                        help="subtree graft probability (default 0.6)")
    shared.add_argument("--nodes", type=int, default=400,
                        help="random graph size (default 400)")
    shared.add_argument("--explain", action="store_true",
                        help="also print the batch's shared-plan DAG")
    shared.set_defaults(func=_cmd_shared)

    adaptive = subparsers.add_parser(
        "adaptive", help="adaptive prune reordering vs static plan order"
    )
    adaptive.add_argument("--workload-scale", type=int, default=4,
                          help="skewed-graph scale factor (default 4)")
    adaptive.add_argument("--repeats", type=int, default=8,
                          help="copies of each skewed query shape (default 8)")
    adaptive.set_defaults(func=_cmd_adaptive)

    codegen = subparsers.add_parser(
        "codegen", help="specialized plan functions vs the interpreted pipeline"
    )
    codegen.add_argument("--rounds", type=int, default=7,
                         help="timed warm evaluations per query (default 7)")
    codegen.add_argument("--enforce-floor", action="store_true",
                         help="fail unless the aggregate warm speedup reaches "
                              "--floor")
    codegen.add_argument("--floor", type=float, default=1.5,
                         help="speedup floor for --enforce-floor (default 1.5)")
    codegen.set_defaults(func=_cmd_codegen)

    index_choice = subparsers.add_parser(
        "index-choice",
        help="per-query partial indexes vs a full build, cold first answer",
    )
    index_choice.add_argument("--workload-scale", type=int, default=2,
                              help="enclave-graph scale factor (default 2)")
    index_choice.add_argument("--queries", type=int, default=4,
                              help="enclave queries in the workload (default 4)")
    index_choice.add_argument("--rounds", type=int, default=3,
                              help="cold evaluations per query per arm "
                                   "(default 3)")
    index_choice.add_argument("--enforce-floor", action="store_true",
                              help="fail unless the aggregate cold "
                                   "first-answer speedup reaches --floor")
    index_choice.add_argument("--floor", type=float, default=1.5,
                              help="speedup floor for --enforce-floor "
                                   "(default 1.5)")
    index_choice.set_defaults(func=_cmd_index_choice)

    parallel = subparsers.add_parser(
        "parallel", help="sharded concurrent prune execution vs single-shard"
    )
    parallel.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4],
                          help="worker counts to sweep; must include 1 "
                               "(default: 1 2 4)")
    parallel.add_argument("--workload-scale", type=int, default=2,
                          help="funnel-graph scale factor (default 2)")
    parallel.add_argument("--queries", type=int, default=4,
                          help="funnel queries in the workload (default 4)")
    parallel.add_argument("--backend", default="auto",
                          help="pool backend: auto, process, thread or serial "
                               "(default: auto)")
    parallel.add_argument("--enforce-floor", action="store_true",
                          help="fail unless the end-to-end wall speedup at the "
                               "top worker count reaches --floor (>= 4 cores "
                               "and a real pool backend), or — where real "
                               "speedup is unattainable — wall time stays "
                               "within the single-shard budget; also runs the "
                               "work-stealing sanity probe")
    parallel.add_argument("--floor", type=float, default=1.5,
                          help="end-to-end wall speedup floor for "
                               "--enforce-floor (default 1.5)")
    parallel.add_argument("--floor-slack", type=float, default=0.25,
                          help="budget slack for --enforce-floor on few-core "
                               "or serial-backend runs (default 0.25)")
    parallel.set_defaults(func=_cmd_parallel)

    serving = subparsers.add_parser(
        "serving", help="warm-store restart race + concurrent serving burst"
    )
    serving.add_argument("--store", metavar="DIR",
                         help="store directory (default: a fresh temp dir)")
    serving.add_argument("--workers", type=int, default=4,
                         help="server worker sessions (default 4)")
    serving.add_argument("--requests", type=int, default=96,
                         help="concurrent requests in the burst (default 96)")
    serving.add_argument("--enforce-floor", action="store_true",
                         help="fail unless the warm-restart first-answer "
                              "speedup reaches --floor")
    serving.add_argument("--floor", type=float, default=3.0,
                         help="speedup floor for --enforce-floor (default 3.0)")
    serving.set_defaults(func=_cmd_serving)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
