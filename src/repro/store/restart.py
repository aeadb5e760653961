"""``python -m repro.store.restart`` — one process of a warm-restart race.

The warm store's headline claim is cross-*process*: a fresh interpreter
pointed at a populated store reaches its first answer several times
faster than a cold one, because compiled plans, answer sets and
specialized codegen functions rehydrate instead of rebuilding.  This
driver is the single-process half of that experiment: build the
deterministic Fig. 7 graph, open a session (optionally against a store),
time the distance from session construction to the first answer, run the
whole workload, optionally persist, and print one JSON object on stdout.

``tests/store/test_warm_restart.py`` runs it twice (cold, then warm)
and compares the answer digests — the digest makes corrupt-store
fallback verifiable: a damaged store must reproduce the cold digest
byte-for-byte.  The timings it prints are measured on the paper
workloads by ``store.rehydrate_ms`` in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from ..datasets import fig7_query, generate_xmark
from ..engine.session import QuerySession


def fig7_workload() -> list:
    """The Fig. 7 q1/q2/q3 instances of the restart race."""
    return [
        fig7_query(variant, person_group=2, item_group=4, seller_group=6)
        for variant in ("q1", "q2", "q3")
    ]


def answer_digest(results) -> str:
    """A stable content hash of one answer set (order-independent)."""
    payload = "\n".join(sorted(repr(row) for row in results))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def run_once(
    *,
    store: str | None,
    scale: float,
    seed: int,
    codegen: bool,
    persist: bool,
) -> dict:
    """Build graph + session, run the Fig. 7 workload, return the report.

    ``first_answer_seconds`` counts from *session construction* (store
    rehydration included) through the first query's answer — index
    build, plan compilation and codegen all land inside it, which is
    exactly the window the warm store collapses.  Graph generation is
    excluded: both processes pay it identically.
    """
    graph = generate_xmark(scale=scale, seed=seed).graph
    workload = fig7_workload()

    started = time.perf_counter()
    session = QuerySession(graph, store=store, codegen="auto" if codegen else False)
    first = session.evaluate(workload[0])
    first_answer_seconds = time.perf_counter() - started

    answers = [first] + [session.evaluate(query) for query in workload[1:]]
    total_seconds = time.perf_counter() - started

    report = {
        "store": store,
        "scale": scale,
        "seed": seed,
        "codegen": codegen,
        "first_answer_seconds": round(first_answer_seconds, 6),
        "total_seconds": round(total_seconds, 6),
        "result_counts": [len(answer) for answer in answers],
        "answer_digests": [answer_digest(answer) for answer in answers],
        "rehydrated": dict(session.store_rehydrated),
    }
    if persist and store is not None:
        report["persisted"] = session.persist()
    # Snapshot after persist so the cold leg's writes are visible.
    report["store_counters"] = (
        session.store.counters.snapshot() if session.store is not None else {}
    )
    session.close()
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store.restart", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--store", default=None, help="store directory (omit = cold)")
    parser.add_argument("--scale", type=float, default=0.05, help="XMark scale factor")
    parser.add_argument("--seed", type=int, default=42, help="XMark generator seed")
    parser.add_argument("--codegen", action="store_true", help="specialize plans")
    parser.add_argument(
        "--persist", action="store_true", help="publish warm artifacts after the run"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    report = run_once(
        store=args.store,
        scale=args.scale,
        seed=args.seed,
        codegen=args.codegen,
        persist=args.persist,
    )
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
