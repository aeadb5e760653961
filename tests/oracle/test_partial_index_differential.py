"""Randomized differential testing of the partial-index path.

Seeded enclave (graph, workload) cases — shapes where the per-query
costing of :func:`repro.plan.cost.choose_scoped_index` actually picks
the partial arm — are cross-checked three ways:

* **oracle** — the partial-plan session must agree byte-for-byte with
  ``evaluate_naive`` (the Section-2 semantics oracle);
* **full-index differential** — and with a session pinned to a
  full-graph index, *including probe-count parity*: the descendant
  closure counts one lookup per probe at the call sites a full ``tc``
  counts them, so any silent fallback or double-probe shows up as a
  counter drift;
* **boundary** — cones at and past the budget fraction must fall back
  to a full index and still match the oracle (the partial arm can cost
  time, never correctness).

The partial arm exists above the closure bound (``AUTO_CLOSURE_MAX_BYTES``);
the whole module runs with the bound patched down so the generated
graphs sit above it.  Under the bound the same sessions run on the
closure rung: ``tests/engine/test_closure_rung.py`` and the un-patched
half of ``test_churn_differential.py``.
"""

import random

import pytest

from repro.datasets import enclave_graph, index_choice_workload
from repro.engine import QuerySession
from repro.graph import DataGraph
from repro.query import AttributePredicate, QueryBuilder, evaluate_naive

SEEDS = range(700, 706)

pytestmark = pytest.mark.usefixtures("low_closure_bound")


def pair_query(head, tail):
    return (
        QueryBuilder()
        .backbone("a", predicate=AttributePredicate.label(head))
        .backbone("b", parent="a", predicate=AttributePredicate.label(tail))
        .outputs("a", "b")
        .build()
    )


class TestPartialDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_partial_plans_match_naive_and_full_sessions(self, seed):
        rng = random.Random(seed)
        graph = enclave_graph(1, rng)
        labels = ["q", "r", "s"]
        rng.shuffle(labels)
        queries = [pair_query(labels[0], labels[1]), pair_query(labels[1], labels[2])]

        partial_session = QuerySession(graph)
        full_session = QuerySession(graph, index="3hop")
        # Probe parity is measured against the partial arm's *inner*
        # index pinned full-scope: the engine walks an identical probe
        # stream there, while 3hop runs its own hop-list merge path.
        parity_session = QuerySession(graph, index="tc")
        partial_picked = 0
        for position, query in enumerate(queries):
            plan = partial_session._plan_for(query)
            partial_picked += plan.compiled.physical.index_scope == "partial"
            answer, stats = partial_session.evaluate_with_stats(query)
            full_answer, __ = full_session.evaluate_with_stats(query)
            __, parity_stats = parity_session.evaluate_with_stats(query)
            oracle = evaluate_naive(query, graph)
            assert answer == oracle, f"seed {seed} query {position}: != naive"
            assert answer == full_answer, f"seed {seed} query {position}: != full"
            assert stats.partial_fallbacks == 0
            assert stats.index_lookups == parity_stats.index_lookups, (
                f"seed {seed} query {position}: partial run probed "
                f"{stats.index_lookups} times, full tc run "
                f"{parity_stats.index_lookups}"
            )
        assert partial_picked == len(queries), (
            f"seed {seed}: the enclave workload must exercise the partial arm"
        )

    def test_generated_workload_sweep(self):
        graph, queries = index_choice_workload(scale=1, queries=6)
        partial_session = QuerySession(graph)
        full_session = QuerySession(graph, index="3hop")
        for position, query in enumerate(queries):
            answer = partial_session.evaluate(query)
            assert answer == full_session.evaluate(query), f"query {position}"
            assert answer == evaluate_naive(query, graph), f"query {position}"


class TestFootprintBoundary:
    def ladder_graph(self, cone_fraction, num_nodes=1200, seed=11):
        """A dense bulk plus one rare-label chain sized to put the real
        descendant cone at ``cone_fraction`` of the graph."""
        rng = random.Random(seed)
        graph = DataGraph()
        chain = max(2, int(cone_fraction * num_nodes))
        bulk = num_nodes - chain
        for __ in range(bulk):
            graph.add_node(label=rng.choice("abc"))
        for target in range(1, bulk):
            lower = max(0, target - 10)
            graph.add_edge(rng.randrange(lower, target), target)
            graph.add_edge(rng.randrange(lower, target), target)
        base = bulk
        graph.add_node(label="q")
        graph.add_node(label="r")
        for __ in range(chain - 2):
            graph.add_node(label="a")
        for position in range(chain - 1):
            graph.add_edge(base + position, base + position + 1)
        graph.add_edge(0, base)
        return graph

    @pytest.mark.parametrize("cone_fraction", [0.05, 0.24, 0.5, 0.95])
    def test_boundary_cones_stay_correct(self, cone_fraction):
        """Below the budget the rows are filled; past it the fill blows
        the budget at execution time and falls back — either way the
        answers match the oracle and a pinned full index."""
        graph = self.ladder_graph(cone_fraction)
        query = pair_query("q", "r")
        session = QuerySession(graph)
        answer, stats = session.evaluate_with_stats(query)
        assert answer == evaluate_naive(query, graph)
        assert answer == QuerySession(graph, index="3hop").evaluate(query)
        if stats.partial_builds:
            assert stats.partial_fallbacks == 0
        # One of the arms ran; nothing silently evaluated index-free.
        assert stats.partial_builds + stats.partial_fallbacks <= 1

    def test_past_budget_cone_falls_back(self):
        graph = self.ladder_graph(0.95)
        query = pair_query("q", "r")
        session = QuerySession(graph)
        plan = session._plan_for(query)
        if plan.compiled.physical.index_scope == "partial":
            __, stats = session.evaluate_with_stats(query)
            assert stats.partial_fallbacks == 1
            assert stats.partial_builds == 0
