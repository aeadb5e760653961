"""Differential testing of subtree reuse, query by query and in batches.

Before its first :class:`~repro.engine.operators.DownwardPrune`, a
session's execution probes its subtree cache top-down from the root: a
cached subtree takes its set, and the visits of its descendants do not
run (they are *covered*: no record, no count).  Two sessions over one
graph answer the same stream: one with reuse, one with
``subtree_cache_size=0``.  After every query:

* **oracle** — both answers equal ``evaluate_naive`` (flattened back from
  the group operator where the query groups);
* **cold parity** — every node with a ``candidates_after_downward``
  record has the size a cold visit pruned, and covered nodes have no
  record; where neither run exits early, the recorded and covered nodes
  are exactly the cold run's, and the upward-pruned sets are equal, so a
  hit — and the sets covered nodes read back before the upward pass —
  hand out exactly what a cold run would have pruned;
* **hit model** — a visit hits iff an earlier visit *at the same graph
  version* met its fingerprint (earlier in the stream or earlier in the
  same query), its operator record's note then starts ``subtree-cache``
  (``subtree-cache early-exit`` where it empties a backbone node), a
  covered node's fingerprint was met before too, and the cold session
  never hits.  A version bump — an append, an attribute write — empties
  the model, so no hit may cross a version.

``evaluate_many`` runs the same path after deduplicating fingerprints:
over seeded overlapping batches no subtree is pruned twice within one
graph version.  A session whose cache is too small to keep a hit's
descendants prunes them again before the upward pass, under the closure
and under a pinned 3-hop index.
"""

import random

import pytest

from repro.datasets import (
    TABLE3_OUTPUTS,
    TABLE4_PREDICATES,
    exp1_query,
    exp2_query,
    fig7_query,
    generate_arxiv,
    generate_xmark,
    random_embedded_query,
    random_labeled_graph,
    random_query_batch,
)
from repro.engine import QuerySession
from repro.graph import DataGraph
from repro.query import QueryBuilder, candidate_nodes, evaluate_naive, subtree_fingerprints

#: group labels of the XMark stream: the second and third triples share
#: person / seller labels with the first, so their subtrees recur.
GROUPS = [(4, 5, 6), (7, 8, 9), (4, 8, 6)]


class ReuseHarness:
    """A reuse session, a cold session and the hit model over one graph."""

    def __init__(self, graph):
        self.graph = graph
        self.reuse = QuerySession(graph, result_cache_size=0)
        self.cold = QuerySession(graph, result_cache_size=0, subtree_cache_size=0)
        self.version = graph.version
        self.seen: set[str] = set()
        self.hits = 0

    def check(self, query, group_nodes=(), where=""):
        if self.graph.version != self.version:
            self.version, self.seen = self.graph.version, set()
        expected = evaluate_naive(query, self.graph)
        answer, stats = self.reuse.evaluate_with_stats(query, group_nodes)
        cold_answer, cold_stats = self.cold.evaluate_with_stats(query, group_nodes)
        assert ungroup(answer, query, group_nodes) == expected, f"{where}: reuse != naive"
        assert ungroup(cold_answer, query, group_nodes) == expected, f"{where}: cold != naive"
        assert cold_stats.subtree_cache_hits == 0, where

        # Group evaluation runs the original query, every other the rewrite.
        compiled = self.reuse.plan(query).compiled
        fingerprints = subtree_fingerprints(compiled.original if group_nodes else compiled.query)
        records = [record for record in stats.operator_stats if record.op == "DownwardPrune"]
        covered = {node: record.target for record in records for node in record.covers}
        predicted = 0
        for record in records:
            fingerprint = fingerprints[record.target]
            hit = fingerprint in self.seen
            self.seen.add(fingerprint)
            predicted += hit
            tagged = record.note.split()[:1] == ["subtree-cache"]
            assert tagged == hit, f"{where}: {record.target}"
            if hit:
                assert record.index_lookups == 0, f"{where}: {record.target} probed on a hit"
        for node, hit in covered.items():
            assert fingerprints[node] in self.seen, f"{where}: {node} covered by {hit} unseen"

        # Cold parity: covered nodes have no record; a recorded set is the
        # cold one wherever the cold run reached it.
        down, cold_down = stats.candidates_after_downward, cold_stats.candidates_after_downward
        assert not covered.keys() & down.keys(), where
        for node, size in down.items():
            assert size == cold_down.get(node, size), f"{where}: {node}"
        if exited(stats) or exited(cold_stats):
            # The reuse run ends no later than the cold one: it prunes less.
            assert stats.subtree_cache_hits >= predicted, where
            assert stats.downward_prune_ops <= cold_stats.downward_prune_ops, where
        else:
            assert down.keys() | covered.keys() == cold_down.keys(), where
            assert stats.candidates_after_upward == cold_stats.candidates_after_upward, where
            assert stats.subtree_cache_hits == predicted, where
            visits = stats.downward_prune_ops + predicted + len(covered)
            assert visits == cold_stats.downward_prune_ops, where
        self.hits += predicted
        return stats


def exited(stats):
    """Did a backbone node's empty downward set end the run?"""
    return any("early-exit" in record.note for record in stats.operator_stats)


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


def xmark_stream():
    queries = []
    for person, item, seller in GROUPS:
        groups = {"person_group": person, "item_group": item, "seller_group": seller}
        queries += [fig7_query(variant, **groups) for variant in ("q1", "q2", "q3")]
        queries += [exp1_query(name, **groups) for name in TABLE3_OUTPUTS]
        queries += [exp2_query(name, **groups) for name in TABLE4_PREDICATES]
    return queries


def test_xmark_paper_stream_reuses_subtrees_with_cold_parity():
    harness = ReuseHarness(generate_xmark(scale=0.05, seed=97).graph)
    for position, query in enumerate(xmark_stream()):
        harness.check(query, where=f"query {position}")
    # Shared rooted sub-patterns are what this family consists of.
    assert harness.hits > 0
    reuse = harness.reuse.cache_info()["subtree"]
    # A hit the probe found may go unrecorded when an early exit ends
    # the run before its visit.
    assert reuse["hits"] >= harness.hits and reuse["size"] > 0


def test_arxiv_appends_never_serve_a_hit_across_versions():
    rng = random.Random(41)
    graph = generate_arxiv(num_papers=300, num_authors=60, seed=5).graph
    patterns = []
    while len(patterns) < 6:
        query = random_embedded_query(graph, rng.choice((4, 5, 6)), rng)
        if query is not None:
            patterns.append(query)
    harness = ReuseHarness(graph)
    for epoch in range(4):
        if epoch:
            # Clone a root candidate of one pattern, out-edges included:
            # the new node matches where its twin does, so a stale hit
            # would miss it.
            query = patterns[epoch]
            twin = candidate_nodes(graph, query, query.root)[0]
            clone = graph.add_node(dict(graph.attrs(twin)))
            for target in graph.successors(twin):
                graph.add_edge(clone, target)
        for round_ in range(2):
            for position, query in enumerate(patterns):
                stats = harness.check(query, where=f"epoch {epoch} round {round_} query {position}")
                if round_ == 1:
                    # Asked before at this version: every visit is served.
                    assert stats.downward_prune_ops == 0
    # Each append emptied the cache before the next query read it.
    assert harness.reuse.subtree_cache.counters.invalidations == 3


def test_attribute_write_between_two_queries_drops_reuse():
    graph = generate_xmark(scale=0.05, seed=97).graph
    harness = ReuseHarness(graph)
    first = fig7_query("q1", person_group=7)
    second = fig7_query("q2", person_group=7, item_group=8)
    harness.check(first, where="before")
    served = harness.check(second, where="warm")
    assert served.subtree_cache_hits > 0
    # Relabel a bidder that the bidder subtree kept: its cached set now
    # holds a node that no longer matches.
    bidder = next(
        node
        for node in candidate_nodes(graph, second, "bidder")
        if any(row[1] == node for row in evaluate_naive(first, graph))
    )
    graph.set_attr(bidder, "label", "seller")
    after = harness.check(second, where="after write")
    assert after.subtree_cache_hits == 0
    harness.check(first, where="after write, warm again")


def test_identical_sibling_subtrees_hit_within_one_query():
    graph = generate_xmark(scale=0.05, seed=97).graph
    query = (
        QueryBuilder()
        .backbone("open_auction", label="open_auction")
        .backbone("bidder", parent="open_auction", edge="pc", label="bidder")
        .backbone("personref", parent="bidder", edge="pc", label="personref")
        .backbone("bidder2", parent="open_auction", edge="pc", label="bidder")
        .backbone("personref2", parent="bidder2", edge="pc", label="personref")
        .outputs("open_auction", "bidder", "bidder2")
        .build()
    )
    harness = ReuseHarness(graph)
    stats = harness.check(query, where="fresh session")
    # One sibling prunes bidder -> personref; the other is served by it.
    assert stats.subtree_cache_hits == 2
    assert len(harness.reuse.subtree_cache) == 3


def test_group_nodes_evaluation_reuses_the_original_query_subtrees():
    graph = generate_xmark(scale=0.05, seed=97).graph
    harness = ReuseHarness(graph)
    queries = [fig7_query(variant, person_group=4, item_group=5) for variant in ("q1", "q2")]
    for position, query in enumerate(queries):
        harness.check(query, group_nodes=("city",), where=f"grouped {position}")
        harness.check(query, where=f"ungrouped {position}")
    assert harness.hits > 0


def unsat_rider(label):
    """A query the normalize phase proves empty: it never prunes."""
    return (
        QueryBuilder()
        .backbone("r", label=label)
        .predicate("p", parent="r", label=label)
        .structural("r", "p & !p")
        .outputs("r")
        .build()
    )


def test_overlapping_batches_prune_each_subtree_once_per_version():
    hits = 0
    for seed in range(12):
        rng = random.Random(seed)
        graph = random_labeled_graph(rng.randint(10, 16), rng)
        session = QuerySession(graph, result_cache_size=0)
        cold = QuerySession(graph, result_cache_size=0, subtree_cache_size=0)
        pruned: set[str] = set()  # fingerprints pruned at the current version
        for round_ in range(3):
            where = f"seed {seed} batch {round_}"
            if round_ == 2:
                # An append: the clone of a node, out-edges included.
                twin = rng.randrange(graph.num_nodes)
                clone = graph.add_node(dict(graph.attrs(twin)))
                for target in graph.successors(twin):
                    graph.add_edge(clone, target)
                pruned = set()
            batch = random_query_batch(graph, rng, batch_size=5, overlap=0.7)
            batch += [batch[0], unsat_rider(graph.label(0)), batch[-1]]
            rng.shuffle(batch)
            outcome = session.evaluate_many(batch)
            reference = cold.evaluate_many(batch)
            for position, (query, answer) in enumerate(zip(batch, outcome.results)):
                assert answer == evaluate_naive(query, graph), f"{where} query {position}"
            assert outcome.results == reference.results, where
            assert outcome.stats.batch_unique_queries < len(batch), where

            pruned_visits = 0
            for query, stats, cold_stats in zip(batch, outcome.per_query, reference.per_query):
                fingerprints = subtree_fingerprints(session.plan(query).compiled.query)
                tagged = covered = 0
                for record in stats.operator_stats:
                    if record.op != "DownwardPrune":
                        continue
                    fingerprint = fingerprints[record.target]
                    covered += len(record.covers)
                    for node in record.covers:
                        assert fingerprints[node] in pruned, f"{where}: {node} covered unseen"
                    if record.note.split()[:1] == ["subtree-cache"]:
                        assert fingerprint in pruned, f"{where}: {record.target} hit unseen"
                        tagged += 1
                    else:
                        assert fingerprint not in pruned, f"{where}: {record.target} re-pruned"
                        pruned.add(fingerprint)
                        pruned_visits += 1
                if exited(stats) or exited(cold_stats):
                    assert stats.downward_prune_ops <= cold_stats.downward_prune_ops, where
                else:
                    visits = stats.downward_prune_ops + tagged + covered
                    assert visits == cold_stats.downward_prune_ops, where
            stats = outcome.stats
            assert stats.downward_prune_ops == pruned_visits, where
            hits += stats.subtree_cache_hits
    assert hits > 0


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


def pruned_again(stats):
    """Prunes beyond the recorded visits: covered sets evicted since the
    probe, pruned again before the upward pass."""
    visits = sum(
        1
        for record in stats.operator_stats
        if record.op == "DownwardPrune" and not record.note.startswith("subtree-cache")
    )
    return stats.downward_prune_ops - visits


@pytest.mark.parametrize("index", ["tc", "3hop"])
def test_evicted_covered_sets_are_pruned_again_before_the_upward_pass(index):
    # r(0) and s(1) both hold a(2) -> b(3) -> d(4) -> c(5); a second branch
    # a(6) -> b(7) ends without a c.
    edges = [(0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (0, 6), (6, 7)]
    graph = DataGraph.from_edges("rsabdcab", edges)
    # Two entries: after the first query only a's and root's sets are left.
    session = QuerySession(graph, index, result_cache_size=0, subtree_cache_size=2)
    first, second = chain("r"), chain("s")
    assert session.evaluate(first) == evaluate_naive(first, graph)
    answer, stats = session.evaluate_with_stats(second)
    assert answer == evaluate_naive(second, graph) == {(1, 2, 5)}
    (hit,) = [record for record in stats.operator_stats if record.note == "subtree-cache"]
    assert (hit.target, sorted(hit.covers)) == ("a", ["b", "c"])
    assert pruned_again(stats) == 2  # c, then b over c's set

    fallbacks = 0
    for seed in range(20):
        rng = random.Random(seed)
        graph = random_labeled_graph(rng.randint(10, 16), rng)
        session = QuerySession(graph, index, result_cache_size=0, subtree_cache_size=3)
        for position, query in enumerate(random_query_batch(graph, rng, batch_size=8, overlap=0.8)):
            answer, stats = session.evaluate_with_stats(query)
            assert answer == evaluate_naive(query, graph), f"seed {seed} query {position}"
            fallbacks += pruned_again(stats) > 0
    assert fallbacks > 0
