"""The closure in a session under its real budget
(``AUTO_CLOSURE_MAX_BYTES`` of filled bits): an ``index="auto"`` session
runs every query on its one lazily filled descendant closure — nothing
is built up front, 3-hop is never constructed, the rows outlive appends
*and* attribute writes, and the filled bits of every row of a graph this
size stay far inside the budget.

(A fill past the budget, and the ladder's pick it falls back to, are
``tests/engine/test_closure_budget.py`` and
``tests/oracle/test_closure_budget_differential.py``, with the budget
patched down.)
"""

import asyncio

import pytest

from repro.datasets import (
    TABLE4_PREDICATES,
    exp1_query,
    exp2_query,
    fig7_query,
    generate_xmark,
)
from repro.engine import GTEA, QuerySession
from repro.plan.cost import AUTO_CLOSURE_MAX_BYTES
from repro.query import AttributePredicate, QueryBuilder, evaluate_naive
from repro.reachability import ThreeHopIndex
from repro.serve import QueryServer


@pytest.fixture(scope="module")
def xmark():
    return generate_xmark(scale=0.02, seed=97).graph


def paper_round():
    """A round of Fig. 7, Exp-1 and Exp-2 queries (AD and PC edges,
    AND / OR / NOT)."""
    groups = dict(person_group=1, item_group=2, seller_group=1)
    return [
        *(fig7_query(variant, **groups) for variant in ("q1", "q2", "q3")),
        *(exp1_query(name, **groups) for name in ("Q4", "Q5", "Q6", "Q7", "Q8")),
        *(exp2_query(name, **groups) for name in TABLE4_PREDICATES),
    ]


class TestNeverBuildsThreeHop:
    def test_every_route_of_an_auto_session_runs_on_the_closure(self, xmark, monkeypatch):
        queries = paper_round()
        expected = [evaluate_naive(query, xmark) for query in queries]
        assert any(expected)
        three_hop = GTEA(xmark)  # the paper's default, for the grouped answers
        grouped = [three_hop.evaluate(q, group_nodes=q.outputs[-1:]) for q in queries]
        assert isinstance(three_hop.reachability.index, ThreeHopIndex)

        def refuse(self, dag):
            raise AssertionError("an auto session under the bound built 3-hop")

        monkeypatch.setattr(ThreeHopIndex, "__init__", refuse)
        with pytest.raises(AssertionError):
            GTEA(xmark).reachability  # the patch bites

        session = QuerySession(xmark, result_cache_size=0)
        assert session.resolved_index == "tc"
        for query, answer, groups in zip(queries, expected, grouped):
            assert session.evaluate(query) == answer
            assert session.evaluate(query, group_nodes=query.outputs[-1:]) == groups
        assert session.evaluate_many(queries).results == expected

        async def serve():
            server = QueryServer(xmark)
            await server.start()  # the warm-up touches the session's reachability
            try:
                pooled = server.session.cache_info()["indexes"]["pooled"]
                return [await server.submit(query) for query in queries], pooled
            finally:
                await server.stop()

        served, pooled = asyncio.run(serve())
        assert served == expected and pooled == 0
        assert session.cache_info()["indexes"]["pooled"] == 0
        assert session.cache_info()["partial"]["rows"] > 0

    def test_an_explicit_request_still_builds_it(self, xmark):
        query = fig7_query("q1", person_group=1)
        expected = evaluate_naive(query, xmark)
        pinned = QuerySession(xmark, index="3hop")
        assert pinned.evaluate(query) == expected
        assert isinstance(pinned.reachability().index, ThreeHopIndex)
        assert pinned.cache_info()["indexes"]["pooled"] == 1
        assert pinned.cache_info()["partial"]["rows"] == 0
        engine = GTEA(xmark)
        assert engine.evaluate(query) == expected
        assert isinstance(engine.reachability.index, ThreeHopIndex)


class TestOneHolder:
    def test_nothing_is_filled_before_a_query_reads_it(self, xmark):
        session = QuerySession(xmark)
        service = session.reachability()  # what the server's warm-up does
        assert service is session.reachability() is session._closure.service
        assert not any(session.cache_info()["partial"].values())  # no row, no fill
        assert service.index.budget_bits == 8 * AUTO_CLOSURE_MAX_BYTES
        query = fig7_query("q1", person_group=1)
        session.evaluate(query)
        row = session.cache_info()["partial"]
        assert 0 < row["rows"] == row["fills"] < xmark.num_nodes / 4
        assert session.plan(query).compiled.physical.index_name == "tc"

    def test_explain_prints_the_budget_and_the_filled_bytes(self, xmark):
        session = QuerySession(xmark)
        query = fig7_query("q1", person_group=1)

        def index_line():
            return next(
                line for line in session.explain(query).splitlines() if line.startswith("index:")
            )

        budget = f"closure filled on demand, budget {AUTO_CLOSURE_MAX_BYTES} bytes"
        assert index_line() == f"index: tc ({budget}; filled 0 bytes in 0 rows)"
        session.evaluate(query)
        index = session._closure.service.index
        assert index.rows > 0 and index.bits > 0
        filled = f"filled {index.bits // 8} bytes in {index.rows} rows"
        assert index_line() == f"index: tc ({budget}; {filled})"

    def test_every_row_filled_stays_inside_the_budget(self):
        # XMark 0.2 (13,329 nodes), the largest e2e graph: n(n−1)/2 bits
        # is the most any rows of it can hold, under the budget.
        graph = generate_xmark(scale=0.2, seed=97).graph
        session = QuerySession(graph)
        closure = session.reachability().index
        closure.fill(range(closure.dag.num_nodes))
        row = session.cache_info()["partial"]
        assert row["rows"] == closure.dag.num_nodes
        n = graph.num_nodes
        assert closure.bits <= n * (n - 1) // 2 <= 8 * AUTO_CLOSURE_MAX_BYTES
        assert session.cache_info()["indexes"]["pooled"] == 0


class TestAttributeWrites:
    """``DataGraph.set_attr`` bumps the version and moves label postings;
    the structure — and the closure — stay."""

    def query(self, head, tail):
        return (
            QueryBuilder()
            .backbone("a", predicate=AttributePredicate.label(head))
            .backbone("b", parent="a", predicate=AttributePredicate.label(tail))
            .outputs("a", "b")
            .build()
        )

    def test_answers_follow_a_label_write_without_invalidate(self, xmark):
        graph = generate_xmark(scale=0.02, seed=97).graph  # written to: not the shared one
        assert graph.num_nodes == xmark.num_nodes
        queries = [self.query("person1", "education"), self.query("person1", "city")]
        session = QuerySession(graph)
        for query in queries:
            assert session.evaluate(query) == evaluate_naive(query, graph)
        before = session.cache_info()["partial"]
        moved = graph.nodes_with_label("person0")[:3]
        for node in moved:
            graph.set_attr(node, "label", "person1")
        for query in queries:
            answer = session.evaluate(query)
            assert answer == evaluate_naive(query, graph)
            assert not {row[0] for row in answer}.isdisjoint(moved)  # the write was read
        after = session.cache_info()["partial"]
        assert (after["kept"], after["dropped"]) == (before["kept"] + 1, before["dropped"])
        assert after["fills"] >= before["fills"] and after["rows"] >= before["rows"]
        assert session.cache_info()["structure"]["builds"] == 1

    def test_a_non_label_write_drops_the_result_cache_too(self):
        graph = generate_xmark(scale=0.02, seed=97).graph
        node = graph.nodes_with_label("person1")[0]
        predicate = AttributePredicate([("label", "=", "person1"), ("rank", "=", 7)])
        ranked = QueryBuilder().backbone("a", predicate=predicate).outputs("a").build()
        session = QuerySession(graph)
        assert session.evaluate(ranked) == set()
        graph.set_attr(node, "rank", 7)
        assert session.evaluate(ranked) == evaluate_naive(ranked, graph) == {(node,)}
