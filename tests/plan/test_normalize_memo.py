"""The session's normalize memo replays exactly what ``normalize()`` decides.

Its key (:func:`repro.plan.normalize_key`) is the query's shape plus its
:class:`~repro.query.gtpq.PredicateRelation`, and that is sound only if
the relation is everything normalize reads of the attribute predicates:

* a twin that carries the real query's relation over opaque stand-ins
  for its predicates — they raise on every read — keys and normalizes
  like the real query;
* every case of ``normalize_identity_golden.json``, pushed through one
  session memo in two seeded orders, still equals the golden;
* twins that differ only in their relation miss the memo and match a
  fresh ``normalize()``.
"""

import json
import random
from datetime import date

import pytest

from repro.analysis.satisfiability import is_query_satisfiable
from repro.datasets import fig7_query
from repro.engine.session import QuerySession
from repro.graph import DataGraph
from repro.plan import NormalizeOutcome, normalize, normalize_key
from repro.query import GTPQ, AttributePredicate, QueryBuilder, QueryNode
from repro.query.gtpq import PredicateRelation
from tests.plan.test_normalize_identity import GOLDEN, all_cases, snapshot


@pytest.fixture(scope="module")
def cases():
    return list(all_cases())


class Opaque:
    """A stand-in for node ``node_id``'s predicate: it answers whether it
    is satisfiable (the relation's linear half) and raises on anything
    else, its atoms included; each answer is logged."""

    __slots__ = ("node_id", "sat", "log")

    def __init__(self, node_id, sat, log):
        self.node_id = node_id
        self.sat = sat
        self.log = log

    def is_satisfiable(self):
        self.log.append(("sat", self.node_id))
        return self.sat

    def __getattr__(self, name):
        raise AssertionError(f"read {name!r} of a predicate")

    def __eq__(self, other):
        raise AssertionError("compared predicates")

    def __hash__(self):
        raise AssertionError("hashed a predicate")


def opaque_twin(query, log, relation=None):
    """``query`` over opaque predicates; with ``relation``, the twin
    carries it as its own and never asks its predicates anything."""
    satisfiable = query.relation().satisfiable
    twin = GTPQ(
        root=query.root,
        nodes={
            node_id: QueryNode(
                node_id, Opaque(node_id, satisfiable[node_id], log), node.is_backbone
            )
            for node_id, node in query.nodes.items()
        },
        parent=query.parent,
        children=query.children,
        edge_types=query.edge_types,
        structural=query.structural,
        outputs=query.outputs,
    )
    if relation is not None:
        twin.derived("relation", lambda _: relation)
    return twin


def test_relation_equals_the_pairwise_checks(cases):
    """The bit-mask rows, asked per atom, say what the predicates answer
    pair by pair — incomparable constants and NaN (which subsumes nothing,
    not even itself) included."""
    mixed = (
        QueryBuilder()
        .backbone("r", label="paper")
        .backbone("a", parent="r", predicate=AttributePredicate([("time", "<", 5)]))
        .backbone("b", parent="r", predicate=AttributePredicate([("time", "<=", 5.0)]))
        .predicate("c", parent="r", predicate=AttributePredicate([("day", "=", date(2020, 1, 1))]))
        .predicate("d", parent="r", predicate=AttributePredicate([("day", "=", "2020-01-01")]))
        .outputs("r", "a", "b")
        .build()
    )
    twice = AttributePredicate([("label", "=", "b"), ("label", "=", "b")])
    unless_x = AttributePredicate([("label", "=", "b"), ("x", "!=", "1")])
    labels = (
        QueryBuilder()
        .backbone("r", label="a")
        .backbone("b", parent="r", predicate=twice)
        .backbone("c", parent="r", predicate=unless_x)
        .backbone("d", parent="r", label="b")
        .backbone("e", parent="r", predicate=AttributePredicate.wildcard())
        .outputs("r")
        .build()
    )
    incomparable = (
        QueryBuilder()
        .backbone("r", label="paper")
        .backbone("a", parent="r", predicate=AttributePredicate([("time", "<", 5)]))
        .backbone("b", parent="r", predicate=AttributePredicate([("time", "<", "x")]))
        .backbone("c", parent="r", predicate=AttributePredicate([("time", ">=", None)]))
        .backbone("d", parent="r", predicate=AttributePredicate([("score", "=", float("nan"))]))
        .backbone("e", parent="r", predicate=AttributePredicate([("time", "<", 5), ("a", "=", 1)]))
        .outputs("r")
        .build()
    )
    extra = [
        ("time-twins", time_twins(2000, 2005)),
        ("mixed-constants", mixed),
        ("label-conjunctions", labels),
        ("incomparable-constants", incomparable),
    ]
    for case_id, query in cases + extra:
        relation = PredicateRelation(query.nodes)
        fa = query.attribute
        assert relation.satisfiable == {n: fa(n).is_satisfiable() for n in query.nodes}, case_id
        batched = {(m, n) for m in query.nodes for n in query.nodes if relation.subsumes(m, n)}
        pairwise = {(m, n) for m in query.nodes for n in query.nodes if fa(m).subsumes(fa(n))}
        assert batched == pairwise, case_id


def test_linear_satisfiability_asks_no_pair(cases):
    """Theorem 2.1's linear check reads only the satisfiability bits; the
    subsumer rows are computed on their first read, so it stays linear."""
    linear = [(case_id, query) for case_id, query in cases if query.is_union_conjunctive()]
    assert linear
    for case_id, query in linear:
        log = []
        twin = opaque_twin(query, log)
        assert is_query_satisfiable(twin) == is_query_satisfiable(query), case_id
        assert sorted(log) == sorted(("sat", n) for n in query.nodes), case_id


def test_the_relation_is_all_normalize_reads(cases):
    """A twin that carries the real query's relation over predicates that
    raise on every read keys and normalizes like the real query."""
    for case_id, query in cases:
        log = []
        twin = opaque_twin(query, log, relation=query.relation())
        assert normalize_key(twin) == normalize_key(query), case_id
        twin_outcome = NormalizeOutcome.of(normalize(twin))
        assert log == [], f"{case_id}: normalize asked a predicate itself"
        assert twin_outcome == NormalizeOutcome.of(normalize(query)), case_id


@pytest.mark.parametrize("seed", [3, 11])
def test_golden_cases_through_one_session_memo(cases, seed):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    order = list(cases)
    random.Random(seed).shuffle(order)
    session = QuerySession(DataGraph(), plan_cache_size=len(order))
    keys = set()
    for case_id, query in order:
        keys.add(normalize_key(query))
        assert snapshot(query, session._normalize(query)) == golden[case_id], case_id
    row = session.cache_info()["normalize"]
    assert row["misses"] == len(keys) == row["size"]
    assert row["hits"] == len(order) - len(keys) > 0


def time_twins(first, second):
    """One shape: two ``time >= t`` predicate siblings, both required."""
    return (
        QueryBuilder()
        .backbone("r", label="paper")
        .predicate("p", parent="r", predicate=AttributePredicate([("time", ">=", first)]))
        .predicate("q", parent="r", predicate=AttributePredicate([("time", ">=", second)]))
        .structural("r", "p & q")
        .outputs("r")
        .build()
    )


@pytest.mark.parametrize(
    "seen, other",
    [
        (fig7_query("q3", person_group=3, seller_group=4), fig7_query("q3", 5, seller_group=5)),
        (time_twins(2000, 2005), time_twins(2005, 2000)),
    ],
    ids=["q3-person-equals-seller", "swapped-time-constants"],
)
def test_a_different_relation_misses(seen, other):
    session = QuerySession(DataGraph())
    session._normalize(seen)
    assert normalize_key(seen) != normalize_key(other)
    replayed = session._normalize(other)
    assert session.cache_info()["normalize"]["misses"] == 2
    assert snapshot(other, replayed) == snapshot(other)


def test_swapped_time_constants_drop_the_other_sibling():
    """The relation decides which of two ``time >= t`` siblings is
    redundant, so the two twins of the test above really do differ."""
    assert normalize(time_twins(2000, 2005)).removed_nodes == ("p",)
    assert normalize(time_twins(2005, 2000)).removed_nodes == ("q",)


def test_key_holds_insertion_and_sibling_order():
    """Algorithm 1 scans ``query.nodes`` and relocates an output to the
    first similar counterpart in pre-order, so both orders are key parts
    (the query fingerprint ignores sibling order; the key does not)."""
    query = time_twins(2000, 2005)
    reversed_siblings = GTPQ(
        root=query.root,
        nodes=query.nodes,
        parent=query.parent,
        children={**query.children, "r": ["q", "p"]},
        edge_types=query.edge_types,
        structural=query.structural,
        outputs=query.outputs,
    )
    reinserted = GTPQ(
        root=query.root,
        nodes={node_id: query.nodes[node_id] for node_id in ("r", "q", "p")},
        parent=query.parent,
        children=query.children,
        edge_types=query.edge_types,
        structural=query.structural,
        outputs=query.outputs,
    )
    keys = {normalize_key(q) for q in (query, reversed_siblings, reinserted)}
    assert len(keys) == 3
