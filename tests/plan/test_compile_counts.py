"""Each fact about a query is derived once — counted, not timed.

Compiling Fig. 7 ``q3`` (already minimal, so one query object goes through
parse, satisfiability, Algorithm 1 and the planner) builds every node's
``fext`` once and every predicate's satisfiability verdict once; neither
``evaluate()`` nor ``evaluate_many()`` asks the logical plan for its
subtree fingerprints, and a batch prunes each distinct subtree once.
A second template instance replays the session's normalize memo: neither
Theorem 1 nor Algorithm 1 runs, and the plan is the cold one.
"""

import importlib
import pickle
from weakref import WeakValueDictionary

import pytest

import repro.plan.logical as logical
import repro.query.attribute as attribute
import repro.query.subtrees as subtrees
from repro.datasets import exp2_query, fig7_query, generate_xmark
from repro.engine.session import QuerySession
from repro.query import evaluate_naive, subtree_fingerprints
from tests.plan.test_normalize_identity import snapshot

# ``repro.plan.normalize`` is also the name of the function the package exports.
normalize = importlib.import_module("repro.plan.normalize")


@pytest.fixture
def counted(monkeypatch):
    """Wrap ``module.name``; the returned list collects one entry per call."""

    def wrap(module, name):
        calls, inner = [], getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
        return calls

    return wrap


@pytest.fixture(scope="module")
def graph():
    return generate_xmark(scale=0.02, seed=97).graph


def test_compile_builds_each_fext_and_each_verdict_once(graph, counted, monkeypatch):
    query = fig7_query("q3")
    # A subtree record (and its fext) is shared with every live query of
    # the process that holds the subtree; count from an empty table.
    monkeypatch.setattr(subtrees, "_SUBTREES", WeakValueDictionary())
    fext_builds = counted(subtrees, "fext_of")  # once per new record
    verdicts = counted(attribute, "_atoms_satisfiable")  # one attribute per predicate here
    plan = QuerySession(graph).plan(query)
    assert plan.compiled.query is query  # nothing was rewritten: one object, one memo
    assert len(fext_builds) == len(query.nodes) == 14
    assert len(verdicts) == len(query.nodes)
    plan.compiled.explain()
    assert len(fext_builds) == len(verdicts) == len(query.nodes)


def test_single_evaluate_never_fingerprints_subtrees(graph, counted):
    calls = counted(logical, "subtree_fingerprints")
    session = QuerySession(graph)
    queries = [fig7_query(variant) for variant in ("q1", "q2", "q3")]
    for query in queries:
        session.evaluate(query)
    assert calls == []

    session.invalidate()
    session.evaluate_many(queries)
    assert calls == []


def test_fig7_batch_prunes_each_distinct_subtree_once(graph):
    queries = [fig7_query(variant) for variant in ("q1", "q2", "q3")]
    fingerprints = [fp for query in queries for fp in subtree_fingerprints(query).values()]
    assert (len(fingerprints), len(set(fingerprints))) == (33, 16)
    batch = QuerySession(graph).evaluate_many(queries)
    # The first visit of each distinct subtree prunes it; a later query
    # reads the topmost subtree it shares from the cache, and the visits
    # below that hit never run.
    records = [record for stats in batch.per_query for record in stats.operator_stats]
    covered = sum(len(record.covers) for record in records)
    assert (batch.stats.downward_prune_ops, batch.stats.subtree_cache_hits, covered) == (16, 5, 12)
    assert batch.results == [evaluate_naive(query, graph) for query in queries]


@pytest.mark.parametrize(
    "template",
    [
        lambda person: fig7_query("q3", person_group=person),
        lambda person: exp2_query("NEG2", person_group=person),
    ],
    ids=["q3", "NEG2"],
)
def test_second_instance_replays_normalize(graph, counted, template):
    """q3 is already minimal; NEG2 is minimized.  Either way the second
    instance runs neither Theorem 1 nor Algorithm 1 and plans, explains
    and rewrites like a cold compile in a fresh session."""
    session = QuerySession(graph)
    session.plan(template(3))
    minimized = counted(normalize, "minimize_query")
    decided = counted(normalize, "is_query_satisfiable")
    query = template(4)
    plan = session.plan(query)
    assert minimized == decided == []
    row = session.cache_info()["normalize"]
    assert (row["hits"], row["misses"], row["size"]) == (1, 1, 1)

    cold = QuerySession(graph)
    cold_plan = cold.plan(template(4))
    assert minimized and decided  # the fresh session ran both
    replayed, fresh = plan.compiled.normalized, cold_plan.compiled.normalized
    assert snapshot(query, replayed) == snapshot(query, fresh)
    assert session.explain(query) == cold.explain(query)


def test_a_replayed_plan_pickles_like_a_cold_one(graph):
    """Byte for byte when normalize leaves the query as it is, so the warm
    store's format does not move."""
    session = QuerySession(graph)
    session.plan(fig7_query("q3", person_group=3))
    plan = session.plan(fig7_query("q3", person_group=4))
    assert session.cache_info()["normalize"]["hits"] == 1
    cold_plan = QuerySession(graph).plan(fig7_query("q3", person_group=4))
    assert pickle.dumps(plan) == pickle.dumps(cold_plan)


def test_a_replayed_minimized_plan_round_trips_through_the_store(graph, tmp_path):
    """A minimized plan replays the recorded instance's rewritten ``fs``
    objects, so its pickle equals a cold one only up to object sharing:
    it must still unpickle to the cold plan's rewrite, persist, rehydrate
    and answer like it."""
    session = QuerySession(graph, store=tmp_path / "store")
    session.plan(exp2_query("NEG2", person_group=3))
    query = exp2_query("NEG2", person_group=4)
    plan = session.plan(query)
    assert session.cache_info()["normalize"]["hits"] == 1
    assert plan.compiled.normalized.removed_nodes  # Algorithm 1 did shrink it
    cold_plan = QuerySession(graph).plan(exp2_query("NEG2", person_group=4))
    thawed = pickle.loads(pickle.dumps(plan))
    assert snapshot(query, thawed.compiled.normalized) == snapshot(
        query, cold_plan.compiled.normalized
    )
    assert thawed.compiled.explain() == cold_plan.compiled.explain()
    session.persist()
    session.close()

    restarted = QuerySession(graph, store=tmp_path / "store")
    assert restarted.store_rehydrated["plans"] >= 2
    assert restarted.evaluate(query) == evaluate_naive(query, graph)
    assert restarted.cache_info()["plan"]["misses"] == 0
    restarted.close()
