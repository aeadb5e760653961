"""``python -m repro.serve`` end to end: start, answer, SIGINT, persist,
and a session in this process — not the writer — starting warm from the
persisted store."""

import json
import os
import select
import signal
import socket
import subprocess
import sys
from pathlib import Path

import repro
from repro.datasets import generate_xmark
from repro.engine import QuerySession
from repro.query import QueryBuilder, evaluate_naive, query_to_dict
from repro.store import ArtifactStore, graph_fingerprint

SCALE = 0.01
SEED = 42  # the entry point's default --seed


def auction_query():
    return (
        QueryBuilder()
        .backbone("auction", label="open_auction")
        .backbone("bidder", parent="auction", label="bidder")
        .outputs("auction", "bidder")
        .build()
    )


def test_serves_one_query_and_persists_on_sigint(tmp_path):
    store = tmp_path / "store"
    env = dict(os.environ)
    source = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.serve",
            "--scale", str(SCALE), "--workers", "2", "--port", "0", "--store", str(store),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        ready, _, _ = select.select([process.stdout], [], [], 60)
        assert ready, "the server did not report ready within 60 s"
        words = process.stdout.readline().decode().split()
        assert words[:2] == ["serving", "on"], process.stderr.read().decode()
        host, _, port = words[2].rpartition(":")
        query = auction_query()
        with socket.create_connection((host, int(port)), timeout=30) as connection:
            connection.sendall(json.dumps({"query": query_to_dict(query)}).encode() + b"\n")
            reply = json.loads(connection.makefile("rb").readline())
        process.send_signal(signal.SIGINT)
        process.wait(timeout=30)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()
        process.stderr.close()

    graph = generate_xmark(scale=SCALE, seed=SEED).graph
    expected = evaluate_naive(query, graph)
    assert expected, "the query should have answers on this graph"
    assert reply["ok"] and reply["count"] == len(expected)
    assert {tuple(row) for row in reply["results"]} == expected
    kinds = ArtifactStore(store).kinds(graph_fingerprint(graph))
    assert {"plans", "results"} <= set(kinds)

    session = QuerySession(graph, store=store)
    assert session.store_rehydrated["plans"] > 0
    assert session.store_rehydrated["results"] > 0
    answer, stats = session.evaluate_with_stats(query)
    assert (stats.result_cache_hits, stats.result_cache_misses) == (1, 0)
    assert answer == expected
    session.close()
