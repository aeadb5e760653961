"""Differential testing of sessions over a churned graph.

The graph owns its structural snapshot and absorbs append-only mutations
by *extending* it (:meth:`repro.graph.DataGraph.structure`), together
with its label postings; every other mutation
rebuilds the snapshot.  Sessions of every flavour share it and drop their
caches and full indexes on each version bump; an ``index="auto"`` session
keeps its descendant closure across appends, under the real byte budget
and under one patched down (the enclave's rows stay under both, so
neither half falls back).  A seeded enclave graph is
driven through append epochs — new rare-label nodes citing old ones and
each other, cycles among the new nodes included — with an edge between
two *old* nodes every third epoch, and after every step:

* **oracle** — auto and 3-hop sessions agree with ``evaluate_naive``;
* **probe parity** — the auto session probes its closure exactly as
  often as a session pinned to ``tc`` whose rows are thrown away before
  every step, as in ``test_partial_index_differential.py``: an extended
  snapshot numbers components like a fresh one, so the engine iterates
  them alike, and a kept row answers like a rebuilt one;
* **bookkeeping** — the graph reports one extension per append epoch and
  one build per old→old epoch, whatever the number of sessions; an
  append epoch rebuilds neither the closure nor the label postings, and
  an old→old epoch rebuilds the closure exactly once (the postings
  never: no edge touches them);
* **held services** — a service obtained before a mutation keeps
  answering for the version it was built for, full index and closure
  alike;
* **normalize memo** — kept across appends, old→old edges and
  ``invalidate()``: the three queries share one shape and relation, so
  every session normalizes once and replays every later compile.
"""

import random

import pytest

from repro.datasets import enclave_graph
from repro.engine import QuerySession
from repro.graph import reaches
from repro.query import AttributePredicate, QueryBuilder, evaluate_naive

SEEDS = range(900, 903)
EPOCHS = 6
#: every third epoch also adds an edge between two pre-existing nodes.
REBUILD_EVERY = 3
BULK = 2000


def pair_query(head, tail):
    return (
        QueryBuilder()
        .backbone("a", predicate=AttributePredicate.label(head))
        .backbone("b", parent="a", predicate=AttributePredicate.label(tail))
        .outputs("a", "b")
        .build()
    )


def append_epoch(graph, rng):
    """New enclave nodes whose edges all leave new nodes."""
    old = range(BULK, graph.num_nodes)
    new = [graph.add_node(label=rng.choice("qrs")) for _ in range(rng.randint(1, 3))]
    for node in new:
        for _ in range(rng.randint(1, 3)):
            graph.add_edge(node, rng.choice(old))
    if len(new) > 1:  # a cycle among the new nodes
        graph.add_edge(new[0], new[1])
        graph.add_edge(new[1], new[0])
    if rng.random() < 0.3:
        graph.add_edge(new[0], new[0])
    graph.add_edge(new[-1], rng.choice(old))  # mostly a duplicate


def old_to_old_edge(graph, rng, sources=None):
    """A new edge between enclave nodes, out of one of ``sources`` (nodes
    the caller has had numbered) when given."""
    enclave = range(BULK, graph.num_nodes)
    while not graph.add_edge(rng.choice(sources or enclave), rng.choice(enclave)):
        pass


def churn(seed):
    """Drive one seeded graph through the epochs; the ``index="auto"``
    session must stay on its closure (never pooling a fallback) under
    whatever budget the caller left in place."""
    rng = random.Random(seed)
    graph = enclave_graph(1, rng)
    queries = [pair_query("q", "r"), pair_query("r", "s"), pair_query("s", "q")]
    sessions = {
        "auto": QuerySession(graph),
        "full": QuerySession(graph, index="3hop"),
    }
    # Pinned to ``tc`` and emptied before every step: its rows are always
    # rebuilt, the auto session's are kept wherever the lineage allows.
    parity = QuerySession(graph, index="tc")
    expected = {"builds": 0, "extensions": 0, "label_builds": 1}
    closure = {"kept": 0, "dropped": 0}
    created = []  # steps at which the auto session made a closure

    def check(step):
        parity.invalidate()
        held = sessions["auto"]._closure.service
        for position, query in enumerate(queries):
            where = f"seed {seed} {step} query {position}"
            oracle = evaluate_naive(query, graph)
            probes = {}
            for name, session in sessions.items():
                answer, stats = session.evaluate_with_stats(query)
                assert answer == oracle, f"{where}: {name} != naive"
                probes[name] = stats
            assert sessions["auto"].cache_info()["indexes"]["pooled"] == 0, where
            _, parity_stats = parity.evaluate_with_stats(query)
            assert probes["auto"].index_lookups == parity_stats.index_lookups, (
                f"{where}: auto run probed {probes['auto'].index_lookups} times, "
                f"rebuilt tc run {parity_stats.index_lookups}"
            )
        info = graph.structure_info()
        assert {name: info[name] for name in expected} == expected, f"seed {seed} {step}"
        assert info["version"] == graph.version
        for session in (*sessions.values(), parity):
            memo, plans = (session.cache_info()[name] for name in ("normalize", "plan"))
            assert (memo["misses"], memo["size"], memo["invalidations"]) == (1, 1, 0)
            assert memo["hits"] + memo["misses"] == plans["misses"], f"seed {seed} {step}"
        row = sessions["auto"].cache_info()["partial"]
        assert {name: row[name] for name in closure} == closure, f"seed {seed} {step}"
        assert row["rows"] > 0 and row["fills"] >= row["rows"]
        now = sessions["auto"]._closure.service
        if held is None or now.index._rows is not held.index._rows:
            created.append(step)

    expected["builds"] = 1
    check("initial")
    rebuilds = ["initial"]
    for epoch in range(1, EPOCHS + 1):
        append_epoch(graph, rng)
        if epoch % REBUILD_EVERY == 0:
            old_to_old_edge(graph, rng)
            expected["builds"] += 1
            closure["dropped"] += 1
            rebuilds.append(f"epoch {epoch}")
        else:
            expected["extensions"] += 1
            closure["kept"] += 1
        check(f"epoch {epoch}")
    # One closure per lineage: made at the first query after each rebuild.
    assert created == rebuilds
    for session in (*sessions.values(), parity):
        session.close()


@pytest.mark.parametrize("seed", SEEDS)
def test_churned_sessions_match_naive_with_probe_parity(seed, low_closure_bound):
    churn(seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_churned_sessions_on_the_closure_rung(seed):
    churn(seed)


def test_closure_held_across_mutations_answers_for_its_version():
    rng = random.Random(78)
    graph = enclave_graph(1, rng)
    session = QuerySession(graph)
    query = pair_query("q", "r")
    session.evaluate(query)
    held = session._closure.service
    nodes = range(BULK, graph.num_nodes)
    pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(200)]
    before = [reaches(graph, source, target) for source, target in pairs]

    append_epoch(graph, rng)
    assert session.evaluate(query) == evaluate_naive(query, graph)
    # One service along the lineage: its numbering and rows only grow.
    assert session._closure.service is held
    assert [held.reaches(source, target) for source, target in pairs] == before
    everything = range(BULK, graph.num_nodes)
    later = [(rng.choice(everything), rng.choice(everything)) for _ in range(200)]
    assert [held.reaches(s, t) for s, t in later] == [reaches(graph, s, t) for s, t in later]

    # An edge out of a numbered node: a new lineage, a new closure.
    old_to_old_edge(graph, rng, [source for source, _ in pairs])
    assert session.evaluate(query) == evaluate_naive(query, graph)
    fresh = session._closure.service
    assert fresh.index._rows is not held.index._rows and held.condensation.broken
    # The held service still answers every pair it numbered.
    assert [held.reaches(source, target) for source, target in pairs] == before
    assert [fresh.reaches(s, t) for s, t in later] == [reaches(graph, s, t) for s, t in later]
    session.close()


@pytest.mark.parametrize("index", ["tc", "3hop"])
def test_service_held_across_mutations_answers_for_its_version(index):
    rng = random.Random(77)
    graph = enclave_graph(1, rng)
    session = QuerySession(graph, index=index)
    held = session.reachability()
    nodes = range(BULK, graph.num_nodes)
    pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(200)]
    before = [reaches(graph, source, target) for source, target in pairs]
    assert [held.reaches(source, target) for source, target in pairs] == before

    append_epoch(graph, rng)
    # The same lineage: tc keeps its closure, 3hop is rebuilt over it.
    fresh = session.reachability()
    assert (fresh is held) == (index == "tc") and fresh.condensation is held.condensation
    old_to_old_edge(graph, rng, [source for source, _ in pairs])
    # The held service still answers every pair it numbered.
    assert [held.reaches(source, target) for source, target in pairs] == before
    assert held.condensation.broken
    rebuilt = session.reachability()
    assert [rebuilt.reaches(s, t) for s, t in pairs] == [reaches(graph, s, t) for s, t in pairs]
    session.close()
