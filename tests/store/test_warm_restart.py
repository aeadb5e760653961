"""Cross-process warm restart: a second interpreter rehydrates the store.

This is the end-to-end persistence path that in-process tests cannot
cover: artifacts written by one interpreter must round-trip through a
genuinely fresh process (new pickles, new module state, new sessions)
and answer byte-identically.  The race runs ``python -m
repro.store.restart`` twice at a small scale — cold leg persists, warm
leg rehydrates — and checks the rehydration counters actually fired
rather than the warm leg silently cold-building.

How much faster the warm leg is is a benchmark concern
(``store.rehydrate_ms`` in ``BENCHMARK.json``); tier-1 only asserts
correctness and that rehydration happened, so this stays stable on
loaded CI runners.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC_DIR = pathlib.Path(__file__).resolve().parents[2] / "src"


def run_restart(store, *, persist):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    command = [
        sys.executable, "-m", "repro.store.restart",
        "--store", str(store),
        "--scale", "0.025",
        "--seed", "11",
        "--codegen",
    ]
    if persist:
        command.append("--persist")
    result = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
    return json.loads(result.stdout)


def test_second_process_rehydrates_and_answers_identically(tmp_path):
    store = tmp_path / "store"
    cold = run_restart(store, persist=True)
    warm = run_restart(store, persist=False)

    # The cold leg starts empty and publishes artifacts.
    assert sum(cold["rehydrated"].values()) == 0
    assert cold["persisted"]
    assert cold["store_counters"]["writes"] > 0

    # The warm leg must find them: plans, results and the codegen cache
    # all round-trip; correctness is digest-equality on every workload
    # query.
    assert warm["answer_digests"] == cold["answer_digests"]
    assert warm["result_counts"] == cold["result_counts"]
    assert warm["rehydrated"]["plans"] > 0
    assert warm["rehydrated"]["results"] > 0
    assert warm["rehydrated"]["codegen"] > 0
    assert warm["store_counters"]["hits"] > 0
    assert warm["store_counters"]["corrupt"] == 0
    assert warm["store_counters"]["stale"] == 0


def test_corrupted_store_degrades_to_cold_answers(tmp_path):
    store = tmp_path / "store"
    cold = run_restart(store, persist=True)

    # Flip a byte near the end of every artifact (payload region).
    artifacts = sorted(store.rglob("*.artifact"))
    assert artifacts, "cold leg should have published artifacts"
    for artifact in artifacts:
        blob = bytearray(artifact.read_bytes())
        blob[-3] ^= 0xFF
        artifact.write_bytes(bytes(blob))

    damaged = run_restart(store, persist=False)
    assert damaged["answer_digests"] == cold["answer_digests"]
    assert sum(damaged["rehydrated"].values()) == 0
    assert damaged["store_counters"]["corrupt"] > 0
