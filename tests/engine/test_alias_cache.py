"""The alias cache: JSON text → fingerprint, kept with the answers.

A cached answer is found from its text alone — alias, then
``(fingerprint, group_nodes)`` — so it stays a :meth:`QuerySession.lookup`
hit however long ago its plan was evicted, and across a restart.  An
alias that is missing, malformed or points at an evicted answer is a
cold path, never a wrong answer.
"""

import pytest

from repro.engine import QuerySession
from repro.engine.session import _json_alias
from repro.graph import DataGraph
from repro.query import AttributePredicate, QueryBuilder, evaluate_naive, query_to_json
from repro.store import ArtifactStore, graph_fingerprint


def alias_graph():
    return DataGraph.from_edges(
        "aabbccdd",
        [(0, 2), (0, 4), (1, 3), (2, 6), (3, 7), (4, 6), (2, 4), (5, 7)],
    )


def chain(*labels):
    builder = QueryBuilder().backbone("n0", predicate=AttributePredicate.label(labels[0]))
    for depth, label in enumerate(labels[1:], start=1):
        builder.backbone(
            f"n{depth}", parent=f"n{depth - 1}", predicate=AttributePredicate.label(label)
        )
    return builder.outputs(*(f"n{depth}" for depth in range(len(labels)))).build()


QUERIES = [chain("a", "b"), chain("a", "c"), chain("b", "d")]
TEXTS = [query_to_json(query) for query in QUERIES]


def refuse(*args, **kwargs):
    raise AssertionError("a cached answer was parsed or planned again")


def forbid_planning(monkeypatch):
    monkeypatch.setattr("repro.engine.session.query_from_json", refuse)
    monkeypatch.setattr("repro.engine.session.compile_normalized", refuse)


def assert_cold_and_correct(session, text, query):
    """``lookup`` misses and counts nothing; ``evaluate`` is still right."""
    before = session.cache_info()
    assert session.lookup(text) is None
    assert session.cache_info() == before
    assert session.evaluate(text) == evaluate_naive(query, session.graph)


class TestEvictedPlan:
    def test_an_answer_outlives_its_plan(self, monkeypatch):
        session = QuerySession(alias_graph(), plan_cache_size=1)
        answer = session.evaluate(TEXTS[0])
        session.evaluate(TEXTS[1])
        assert len(session.plan_cache) == 1  # the first text's plan is gone
        assert session.lookup(TEXTS[0]) == answer == evaluate_naive(QUERIES[0], session.graph)
        forbid_planning(monkeypatch)
        assert session.evaluate(TEXTS[0]) == answer
        info = session.cache_info()
        assert (info["alias"]["hits"], info["result"]["hits"]) == (2, 2)

    def test_an_evicted_answer_still_skips_the_parse(self, monkeypatch):
        session = QuerySession(alias_graph(), result_cache_size=1)
        session.evaluate(TEXTS[0])
        session.evaluate(QUERIES[1])  # no alias: the first text's alias stays
        assert session.lookup(TEXTS[0]) is None
        forbid_planning(monkeypatch)
        answer, stats = session.evaluate_with_stats(TEXTS[0])
        assert answer == evaluate_naive(QUERIES[0], session.graph)
        assert (stats.plan_cache_hits, stats.result_cache_misses) == (1, 1)

    def test_a_grouped_lookup_needs_its_plan(self):
        session = QuerySession(alias_graph(), plan_cache_size=1)
        grouped = session.evaluate(TEXTS[0], ("n1",))
        session.evaluate(TEXTS[1])
        before = session.cache_info()
        assert session.lookup(TEXTS[0], ("n1",)) is None
        assert session.cache_info() == before
        assert session.evaluate(TEXTS[0], ("n1",)) == grouped


class TestRestart:
    def test_every_alias_survives_a_restart(self, tmp_path, monkeypatch):
        graph = alias_graph()
        writer = QuerySession(graph, store=tmp_path)
        answers = [writer.evaluate(text) for text in TEXTS]
        assert writer.persist()["aliases"] == len(TEXTS)
        forbid_planning(monkeypatch)
        session = QuerySession(graph, store=tmp_path)
        assert session.store_rehydrated["aliases"] == len(TEXTS)
        assert [session.lookup(text) for text in TEXTS] == answers
        assert session.cache_info()["alias"]["hits"] == len(TEXTS)


class TestBadAlias:
    """A bad alias is cold, never wrong."""

    def restarted(self, tmp_path, aliases):
        """A session over a store whose ``aliases`` artifact is ``aliases``."""
        graph = alias_graph()
        writer = QuerySession(graph, store=tmp_path)
        for text in TEXTS:
            writer.evaluate(text)
        writer.persist()
        writer.store.save(graph_fingerprint(graph), "aliases", aliases)
        return QuerySession(graph, store=tmp_path)

    def test_a_payload_that_is_not_a_dict(self, tmp_path):
        pairs = [(_json_alias(TEXTS[0]), QuerySession(alias_graph()).plan(TEXTS[0]).fingerprint)]
        session = self.restarted(tmp_path, pairs)
        assert session.store_rehydrated["aliases"] == 0
        assert session.store_rehydrated["results"] == len(TEXTS)
        assert_cold_and_correct(session, TEXTS[0], QUERIES[0])

    @pytest.mark.parametrize(
        "target",
        [
            lambda: 42,
            lambda: None,
            lambda: ["a", "list"],
            lambda: ("a", "tuple"),
            lambda: QuerySession(alias_graph()).plan(TEXTS[0]),  # the format-4 value
        ],
        ids=["int", "none", "list", "tuple", "plan"],
    )
    def test_an_alias_to_something_not_a_string(self, tmp_path, target):
        session = self.restarted(tmp_path, {_json_alias(TEXTS[0]): target()})
        assert session.store_rehydrated["aliases"] == 1
        assert_cold_and_correct(session, TEXTS[0], QUERIES[0])
        assert session.lookup(TEXTS[0]) is not None  # evaluate rewrote the alias

    def test_an_alias_whose_answer_was_evicted(self):
        session = QuerySession(alias_graph(), result_cache_size=1)
        session.evaluate(TEXTS[0])
        session.evaluate(QUERIES[1])  # evicts the answer, keeps the alias
        assert _json_alias(TEXTS[0]) in session.alias_cache
        assert_cold_and_correct(session, TEXTS[0], QUERIES[0])

    def test_a_format_4_store(self, tmp_path, monkeypatch):
        """The old layout — aliases inside the ``plans`` payload — under a
        format-4 header is discarded as stale."""
        graph = alias_graph()
        writer = QuerySession(graph)
        plans = []
        for text in TEXTS:
            writer.evaluate(text)
            plan = writer.plan(text)
            plans += [(plan.fingerprint, plan), (_json_alias(text), plan)]
        store = ArtifactStore(tmp_path)
        fingerprint = graph_fingerprint(graph)
        monkeypatch.setattr("repro.store.store.STORE_FORMAT_VERSION", 4)
        store.save(fingerprint, "plans", plans)
        store.save(fingerprint, "results", dict(writer.result_cache.items()))
        monkeypatch.undo()
        session = QuerySession(graph, store=store)
        assert store.counters.stale == 2
        assert sum(session.store_rehydrated.values()) == 0
        for text, query in zip(TEXTS, QUERIES):
            assert_cold_and_correct(session, text, query)
