"""The session's parent memo: each PC valuation merged once per version.

Procedure 6 gives a PC child ``u'`` the valuation ``P_{u'}``, the merged
parent set of its downward set (the paper's Section 4.4 "first
strategy").  A session keeps those sets by the child's subtree
fingerprint for one graph version (``cache_info()["parents"]``): equal
fingerprints have equal downward sets, so a child subtree valued under
one parent is read back, not merged again, under the next.  These tests
pin the counts, the invalidation on every kind of mutation, the sets'
read-only sharing, and the answers against ``evaluate_naive`` — plain,
grouped and per Appendix D output structure.
"""

import pytest

from repro.datasets import TABLE4_PREDICATES, exp2_query, fig7_query, generate_xmark
from repro.engine import GTEA, QuerySession
from repro.engine.cache import LRUCache
from repro.graph import DataGraph
from repro.query import QueryBuilder, evaluate_naive, query_from_dict, query_to_dict

#: the memo row's counters, without its evictions.
ROW = ("hits", "misses", "invalidations", "size")


def memo_row(session):
    row = session.cache_info()["parents"]
    return tuple(row[name] for name in ROW)


def small_graph():
    """``a0 -> c2``, ``b1 -> c3``, a childless ``a4`` and a parentless ``c5``."""
    return DataGraph.from_edges("abccac", [(0, 2), (1, 3)])


def pc_pair(parent_label):
    """A ``parent_label`` node with a PC child labelled ``c``."""
    return (
        QueryBuilder()
        .backbone("x", label=parent_label)
        .backbone("y", parent="x", edge="pc", label="c")
        .outputs("x", "y")
        .build()
    )


def xmark_stream():
    """Fig. 7 and Exp-2 instances whose PC subtrees recur across queries."""
    queries = []
    for person, item, seller in ((4, 5, 6), (7, 8, 9), (4, 8, 6)):
        groups = {"person_group": person, "item_group": item, "seller_group": seller}
        queries += [fig7_query(variant, **groups) for variant in ("q1", "q2", "q3")]
        queries += [exp2_query(name, **groups) for name in TABLE4_PREDICATES]
    return queries


def test_a_shared_pc_child_subtree_is_merged_once():
    graph = small_graph()
    session = QuerySession(graph)
    assert session.evaluate(pc_pair("a")) == {(0, 2)}
    assert memo_row(session) == (0, 1, 0, 1)
    # The second query's root is new, its PC child subtree is not: the
    # subtree cache covers the child, and the memo answers its valuation.
    assert session.evaluate(pc_pair("b")) == {(1, 3)}
    assert memo_row(session) == (1, 1, 0, 1)


def test_a_session_without_pc_edges_never_asks_the_memo():
    graph = small_graph()
    query = (
        QueryBuilder()
        .backbone("x", label="a")
        .backbone("y", parent="x", edge="ad", label="c")
        .outputs("x", "y")
        .build()
    )
    session = QuerySession(graph)
    assert session.evaluate(query) == evaluate_naive(query, graph)
    assert memo_row(session) == (0, 0, 0, 0)


def new_parent_of_a_survivor(graph):
    """``b6 -> c5``: the parentless survivor ``c5`` gains a parent."""
    node = graph.add_node(label="b")
    graph.add_edge(node, 5)


def relabel_a_parent(graph):
    graph.set_attr(0, "label", "b")


def relabel_a_child(graph):
    """``c2`` leaves the child's downward set: ``a0`` leaves ``P_y``."""
    graph.set_attr(2, "label", "d")


@pytest.mark.parametrize("mutate", [new_parent_of_a_survivor, relabel_a_parent, relabel_a_child])
def test_a_mutation_empties_the_memo(mutate):
    graph = small_graph()
    session = QuerySession(graph)
    for label in "ab":
        session.evaluate(pc_pair(label))
    assert memo_row(session) == (1, 1, 0, 1)
    mutate(graph)
    # Any use of the session drops what the version bump invalidated.
    assert session.resolved_index
    assert memo_row(session) == (1, 1, 1, 0)
    for label in "ab":
        query = pc_pair(label)
        assert session.evaluate(query) == evaluate_naive(query, graph), label
    # Merged afresh at the new version, then read back.
    assert memo_row(session) == (2, 2, 1, 1)


def test_memoized_sets_are_shared_read_only():
    graph = generate_xmark(scale=0.05, seed=97).graph
    session = QuerySession(graph, result_cache_size=0)
    seen = {}  # fingerprint -> (the memoized set, its contents when first seen)
    for position, query in enumerate(xmark_stream()):
        assert session.evaluate(query) == evaluate_naive(query, graph), position
        for key, parents in session.parent_memo.items():
            held, contents = seen.setdefault(key, (parents, frozenset(parents)))
            assert parents is held, f"query {position} replaced {key}"
            assert parents == contents, f"query {position} mutated {key}"
    hits, misses, __, size = memo_row(session)
    assert hits > 0
    assert size == misses == len(seen)


def operator_records(stats):
    return [
        (r.op, r.target, r.input_size, r.output_size, r.index_lookups, r.index_entries, r.note)
        for r in stats.operator_stats
    ]


def test_the_memo_changes_no_operator_record():
    """A memo that never keeps a set (capacity 0) merges every valuation:
    sizes, probes and notes must not tell the two sessions apart."""
    graph = generate_xmark(scale=0.05, seed=97).graph
    memoized = QuerySession(graph, result_cache_size=0)
    merged = QuerySession(graph, result_cache_size=0)
    merged.parent_memo = LRUCache(0)
    for position, query in enumerate(xmark_stream()):
        answer, stats = memoized.evaluate_with_stats(query)
        expected, expected_stats = merged.evaluate_with_stats(query)
        assert answer == expected, position
        assert operator_records(stats) == operator_records(expected_stats), position
        assert stats.downward_prune_ops == expected_stats.downward_prune_ops, position
    assert memo_row(memoized)[0] > 0
    assert memo_row(merged)[0] == len(merged.parent_memo) == 0


def ungroup(rows, query, group_nodes):
    """Expand each grouped column back into one row per grouped image."""
    for node in group_nodes:
        column = query.outputs.index(node)
        rows = {
            row[:column] + (dict(item)[node],) + row[column + 1 :]
            for row in rows
            for item in row[column]
        }
    return rows


def test_group_node_evaluations_equal_the_oracle():
    graph = generate_xmark(scale=0.05, seed=97).graph
    session = QuerySession(graph, result_cache_size=0)
    for person, item in ((4, 5), (7, 5), (4, 8)):
        for variant in ("q1", "q2"):
            query = fig7_query(variant, person_group=person, item_group=item)
            grouped = session.evaluate(query, group_nodes=("city",))
            where = f"{variant} {person} {item}"
            assert ungroup(grouped, query, ("city",)) == evaluate_naive(query, graph), where
    assert memo_row(session)[0] > 0


def test_output_structure_evaluations_equal_the_oracle():
    """Appendix D: several output lists over one matching graph, each
    equal to the oracle's answer for the query with those outputs."""
    graph = generate_xmark(scale=0.05, seed=97).graph
    engine = GTEA(graph)
    memo = LRUCache(4096)
    structures = [["open_auction", "bidder"], ["item", "location"], ["city"]]
    for person, item in ((4, 5), (7, 5), (4, 8)):
        query = fig7_query("q2", person_group=person, item_group=item)
        answers, __ = engine.execute(
            engine.compile(query),
            output_structures=structures,
            subtree_cache=LRUCache(4096),
            parent_memo=memo,
        )
        for position, outputs in enumerate(structures):
            spec = query_to_dict(query)
            spec["outputs"] = outputs
            expected = evaluate_naive(query_from_dict(spec), graph)
            assert answers[position] == expected, f"{person} {item} {outputs}"
    assert memo.counters.hits > 0
