"""Randomized differential testing of the budgeted closure.

Seeded enclave (graph, workload) cases — a large graph whose queries
fill a small cone — are cross-checked three ways:

* **oracle** — the ``index="auto"`` session must agree byte-for-byte
  with ``evaluate_naive`` (the Section-2 semantics oracle);
* **full-index differential** — and with a session pinned to a
  full-graph index, *including probe-count parity* against a session
  pinned to ``tc``: the budgeted closure counts one lookup per probe at
  the call sites an unbudgeted one counts them, so any silent fallback
  or double-probe shows up as a counter drift;
* **boundary** — cones under, near and past the budget must either stay
  on the closure or fall back to the ladder's pick, and match the oracle
  either way (the budget can cost time, never correctness).

The module runs with the budget patched down (``low_closure_bound``) so
the generated cones can pass it.  Under the real budget the same
sessions run on the closure: ``tests/engine/test_closure_rung.py`` and
the un-patched half of ``test_churn_differential.py``.
"""

import random

import pytest

from repro.datasets import enclave_graph, index_choice_workload
from repro.engine import QuerySession
from repro.graph import DataGraph, graph_stats
from repro.plan import choose_index
from repro.query import AttributePredicate, QueryBuilder, evaluate_naive
from tests.conftest import LOW_CLOSURE_BOUND

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


class TestUnderBudgetDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_auto_matches_naive_and_full_sessions(self, seed):
        rng = random.Random(seed)
        graph = enclave_graph(1, rng)
        labels = ["q", "r", "s"]
        rng.shuffle(labels)
        queries = [pair_query(labels[0], labels[1]), pair_query(labels[1], labels[2])]

        auto = QuerySession(graph)
        full_session = QuerySession(graph, index="3hop")
        # Probe parity is measured against the unbudgeted closure: the
        # engine walks an identical probe stream there, while 3hop runs
        # its own hop-list merge path.
        parity_session = QuerySession(graph, index="tc")
        for position, query in enumerate(queries):
            answer, stats = auto.evaluate_with_stats(query)
            full_answer, __ = full_session.evaluate_with_stats(query)
            __, parity_stats = parity_session.evaluate_with_stats(query)
            oracle = evaluate_naive(query, graph)
            assert answer == oracle, f"seed {seed} query {position}: != naive"
            assert answer == full_answer, f"seed {seed} query {position}: != full"
            assert stats.index_lookups == parity_stats.index_lookups, (
                f"seed {seed} query {position}: auto run probed "
                f"{stats.index_lookups} times, unbudgeted tc run "
                f"{parity_stats.index_lookups}"
            )
        assert auto.cache_info()["partial"]["dropped"] == 0
        assert auto.cache_info()["indexes"]["pooled"] == 0

    def test_generated_workload_sweep(self):
        graph, queries = index_choice_workload(scale=1, queries=6)
        auto = QuerySession(graph)
        full_session = QuerySession(graph, index="3hop")
        for position, query in enumerate(queries):
            answer = auto.evaluate(query)
            assert answer == full_session.evaluate(query), f"query {position}"
            assert answer == evaluate_naive(query, graph), f"query {position}"
        assert auto.cache_info()["partial"]["dropped"] == 0


class TestBudgetBoundary:
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
        """A chain of c nodes fills ≈ c²/2 bits: 60 and 288 nodes stay
        under the patched budget, 600 and 1,140 pass it.  Either way the
        answers match the oracle and a pinned full index, and the counted
        bits never pass the budget."""
        graph = self.ladder_graph(cone_fraction)
        query = pair_query("q", "r")
        session = QuerySession(graph)
        closure = session.reachability().index
        answer = session.evaluate(query)
        assert answer == evaluate_naive(query, graph)
        assert answer == QuerySession(graph, index="3hop").evaluate(query)
        assert closure.bits <= 8 * LOW_CLOSURE_BOUND
        row = session.cache_info()["partial"]
        past = cone_fraction >= 0.5
        assert row["dropped"] == past
        assert session.cache_info()["indexes"]["pooled"] == past
        if past:
            assert session._fallback == choose_index(graph_stats(graph))

    def test_a_blow_out_mid_run_keeps_later_answers_exact(self):
        """Queries after a blow-out — cheap or not — run on the fallback
        and still match the oracle; so does the first query after the
        version moves, on a fresh closure."""
        graph = self.ladder_graph(0.95)
        session = QuerySession(graph, result_cache_size=0)
        queries = [pair_query("q", "r"), pair_query("a", "b"), pair_query("r", "a")]
        for query in queries:
            assert session.evaluate(query) == evaluate_naive(query, graph)
        assert session.cache_info()["partial"]["dropped"] == 1
        graph.add_edge(graph.add_node(label="c"), 1)
        for query in queries[1:]:
            assert session.evaluate(query) == evaluate_naive(query, graph)
