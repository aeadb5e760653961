"""The shared-value tables are weak: they need no bound and no knob.

Parsing enters each predicate, ``fs`` formula, JSON node entry and
subtree record it builds in a process-wide weak-value table (:mod:`tests.query.test_shared_values`
checks what may share an entry).  An entry lives only as long as a
query or plan holds its value, so once every session and query is
dropped the tables are back to their size before; and threads that
parse at once get the fingerprints one thread gets (two threads that
miss one key both build a value; the later entry wins, and either
value is equal).
"""

import gc
import json
import sys
import threading

from repro.datasets import generate_xmark
from repro.engine import QuerySession
from repro.logic import parser
from repro.query import (
    attribute,
    query_fingerprint,
    query_from_json,
    query_to_json,
    serialize,
    subtree_fingerprints,
    subtrees,
)
from tests.plan.test_normalize_identity import _round_queries

TABLES = {
    "predicates": attribute._SHARED,
    "formulas": parser._SHARED,
    "entries": serialize._ENTRIES,
    "subtrees": subtrees._SUBTREES,
}


def round_texts():
    """The distinct ``xmark_tpq`` and ``xmark_gtpq`` texts of one e2e round."""
    cases = list(_round_queries())
    return {
        workload: [query_to_json(query) for name, query in cases if name.startswith(workload + "/")]
        for workload in ("xmark_tpq", "xmark_gtpq")
    }


def constant_fs_texts(count):
    """Texts whose ``fs`` (and so ``fext``) folds to a constant, one
    distinct text each: constants never die, so no entry may hold one."""
    for index in range(count):
        fs = f"p{index} | !p{index}" if index % 2 else f"p{index} & !p{index}"
        yield json.dumps(
            {
                "nodes": [
                    {"id": "r", "atoms": [["label", "=", "a"]], "fs": fs},
                    {"id": f"p{index}", "kind": "predicate", "parent": "r"},
                    {"id": f"x{index}", "parent": "r"},
                ],
                "outputs": ["r"],
            }
        )


def sizes():
    gc.collect()
    return {name: len(table) for name, table in TABLES.items()}


def use_everything(texts, store):
    """Plan, run, persist and rehydrate ``texts`` through sessions."""
    graph = generate_xmark(scale=0.02, seed=97).graph
    writer = QuerySession(graph, store=store)
    answers = [writer.evaluate(text) for text in texts]
    persisted = writer.persist()
    reader = QuerySession(graph, store=store)
    assert [reader.evaluate(text) for text in texts] == answers
    grown = {name: len(table) for name, table in TABLES.items()}
    return persisted, grown


def test_the_tables_empty_when_every_query_is_dropped(tmp_path):
    texts = round_texts()
    every = texts["xmark_tpq"] + texts["xmark_gtpq"] + list(constant_fs_texts(20))
    before = sizes()
    persisted, grown = use_everything(every, tmp_path)
    assert set(persisted) == {"plans", "aliases", "subtrees", "results"}
    assert all(grown[name] > before[name] for name in TABLES), (before, grown)
    assert sizes() == before


def test_threads_parsing_at_once_get_the_single_thread_fingerprints():
    """More threads than a 2-core host has cores, with a short switch
    interval, each parsing the round from empty tables in its own order."""
    texts = round_texts()["xmark_tpq"]
    expected = [
        (query_fingerprint(query), subtree_fingerprints(query))
        for query in map(query_from_json, texts)
    ]
    gc.collect()
    orders = [range(len(texts)), range(len(texts) - 1, -1, -1)] * 2
    barrier = threading.Barrier(len(orders))
    results = [None] * len(orders)
    errors = []

    def parse(slot):
        try:
            barrier.wait(timeout=60)
            got = {}
            for position in orders[slot]:
                query = query_from_json(texts[position])
                got[position] = (query_fingerprint(query), subtree_fingerprints(query))
            results[slot] = [got[position] for position in range(len(texts))]
        except Exception as error:  # reported by the main thread
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=parse, args=(slot,)) for slot in range(len(orders))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert results == [expected] * len(orders)
