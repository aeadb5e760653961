"""The top-down subtree-cache probe and the read-only candidate sets.

Before the first :class:`~repro.engine.operators.DownwardPrune` of an
execution, the session's subtree cache is probed once from the root.  A
cached subtree takes its set, and the visits below it do not run: no
operator record, no count, no probe.  Candidate and survivor sets are
shared, never copied: a label posting is the graph's own tuple, and a
cached subtree set is installed as stored.
"""

from repro.datasets import fig7_query, generate_xmark
from repro.engine import QuerySession
from repro.graph import DataGraph
from repro.query import QueryBuilder, candidate_nodes, evaluate_naive


def shared_chain_graph():
    # r(0) and s(1) both hold a(2) -> b(3) -> d(4) -> c(5).
    return DataGraph.from_edges("rsabdc", [(0, 2), (1, 2), (2, 3), (3, 4), (4, 5)])


def chain(root_label):
    """``root -> a -> b // c``: a three-node subtree under ``root_label``."""
    return (
        QueryBuilder()
        .backbone("root", label=root_label)
        .backbone("a", parent="root", edge="pc", label="a")
        .backbone("b", parent="a", edge="pc", label="b")
        .backbone("c", parent="b", edge="ad", label="c")
        .outputs("root", "a", "c")
        .build()
    )


def downward_records(stats):
    return {
        record.target: record for record in stats.operator_stats if record.op == "DownwardPrune"
    }


def test_a_shared_subtree_is_one_hit_and_its_descendants_never_run():
    graph = shared_chain_graph()
    session = QuerySession(graph, result_cache_size=0)
    session.evaluate(chain("r"))
    second = chain("s")
    answer, stats = session.evaluate_with_stats(second)
    assert answer == evaluate_naive(second, graph) == {(1, 2, 5)}
    records = downward_records(stats)
    assert sorted(records) == ["a", "root"]
    assert records["a"].note == "subtree-cache"
    assert sorted(records["a"].covers) == ["b", "c"]
    assert (stats.subtree_cache_hits, stats.subtree_cache_misses) == (1, 1)
    assert stats.downward_prune_ops == 1  # the new root only
    assert "b" not in stats.candidates_after_downward
    # The covered sets were read back for the upward pass.
    assert stats.candidates_after_upward["c"] == 1


def test_group_node_runs_probe_every_visit_as_before():
    graph = shared_chain_graph()
    session = QuerySession(graph, result_cache_size=0)
    session.evaluate(chain("r"), group_nodes=("c",))
    second = chain("s")
    grouped, stats = session.evaluate_with_stats(second, group_nodes=("c",))
    records = downward_records(stats)
    # Every visit runs and probes for itself; nothing is covered.
    assert sorted(records) == ["a", "b", "c", "root"]
    assert [records[node].note for node in ("a", "b", "c")] == ["subtree-cache"] * 3
    assert all(record.covers == () for record in records.values())
    assert (stats.subtree_cache_hits, stats.downward_prune_ops) == (3, 1)
    flat = {(row[0], row[1], dict(item)["c"]) for row in grouped for item in row[2]}
    assert flat == evaluate_naive(second, graph)


def test_explain_names_the_hit_that_covered_a_row():
    graph = shared_chain_graph()
    session = QuerySession(graph, result_cache_size=0)
    session.evaluate(chain("r"))
    session.evaluate(chain("s"))
    rows = session.explain(chain("s")).splitlines()
    covered = [row for row in rows if "covered by subtree-cache hit at a" in row]
    assert sorted(row.split(".", 1)[1].split()[0] for row in covered) == [
        "DownwardPrune(b)",
        "DownwardPrune(c)",
    ]
    assert not any("not executed" in row for row in rows)
    (hit,) = [row for row in rows if "DownwardPrune(a)" in row]
    assert hit.endswith("[subtree-cache]")


def test_an_empty_cached_backbone_set_ends_the_run_before_any_prune():
    graph = shared_chain_graph()
    session = QuerySession(graph, result_cache_size=0)
    query = (
        QueryBuilder()
        .backbone("root", label="r")
        .backbone("a", parent="root", edge="pc", label="a")
        .backbone("b", parent="a", edge="pc", label="c")  # no a -> c edge
        .outputs("root")
        .build()
    )
    assert session.evaluate(query) == set()
    twin = (
        QueryBuilder()
        .backbone("top", label="s")
        .backbone("x", parent="top", edge="ad", label="d")
        .backbone("a", parent="top", edge="pc", label="a")
        .backbone("b", parent="a", edge="pc", label="c")
        .outputs("top", "x")
        .build()
    )
    answer, stats = session.evaluate_with_stats(twin)
    assert answer == evaluate_naive(twin, graph) == set()
    records = [record for record in stats.operator_stats if record.op == "DownwardPrune"]
    assert [(record.target, record.note) for record in records] == [
        ("a", "subtree-cache early-exit")
    ]
    assert stats.downward_prune_ops == 0


def snapshot(graph, session):
    labels = {graph.label(node) for node in graph.nodes()}
    postings = {label: graph.nodes_with_label(label) for label in labels}
    cached = dict(session.subtree_cache.items())
    return postings, cached, {key: tuple(value) for key, value in {**postings, **cached}.items()}


def test_postings_and_cached_sets_are_shared_and_never_mutated():
    graph = generate_xmark(scale=0.02, seed=97).graph
    session = QuerySession(graph, result_cache_size=0)
    answer_bearing = fig7_query("q1")
    assert session.evaluate(answer_bearing) == evaluate_naive(answer_bearing, graph) != set()
    postings, cached, contents = snapshot(graph, session)
    # A label-only leaf's downward set is the posting itself.
    (shared,) = [value for value in cached.values() if value is postings["city"]]
    assert list(shared) == candidate_nodes(graph, answer_bearing, "city")

    early_exit = fig7_query("q1", person_group=9999)  # no such person label
    _, stats = session.evaluate_with_stats(early_exit)
    assert any("early-exit" in record.note for record in stats.operator_stats)
    session.evaluate(fig7_query("q2"))  # hits the cached subtrees of q1
    after, cached_after, _ = snapshot(graph, session)
    for label, posting in postings.items():
        assert after[label] is posting and tuple(posting) == contents[label]
    for key, value in cached.items():
        assert cached_after.get(key, value) is value and tuple(value) == contents[key]
        assert isinstance(value, tuple)

