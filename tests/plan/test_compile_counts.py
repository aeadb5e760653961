"""Each fact about a query is derived once — counted, not timed.

Compiling Fig. 7 ``q3`` (already minimal, so one query object goes through
parse, satisfiability, Algorithm 1 and the planner) builds every node's
``fext`` once and every predicate's satisfiability verdict once; neither
``evaluate()`` nor ``evaluate_many()`` asks the logical plan for its
subtree fingerprints, and a batch prunes each distinct subtree once.
"""

import pytest

import repro.plan.logical as logical
import repro.query.attribute as attribute
import repro.query.gtpq as gtpq
from repro.datasets import fig7_query, generate_xmark
from repro.engine.session import QuerySession
from repro.query import evaluate_naive, subtree_fingerprints


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


def test_compile_builds_each_fext_and_each_verdict_once(graph, counted):
    query = fig7_query("q3")
    fext_builds = counted(gtpq, "land")  # gtpq.py calls land() in fext() only
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
    # The first visit of each distinct subtree prunes it; every other
    # visit reads the subtree cache.
    assert (batch.stats.downward_prune_ops, batch.stats.subtree_cache_hits) == (16, 17)
    assert batch.results == [evaluate_naive(query, graph) for query in queries]
