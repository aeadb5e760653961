"""The downward kernel against the algorithm it replaced.

``_filter_downward`` decides ``fext(u)`` once per node in the algebra of
candidate sets.  The loop it replaced — one ``dict`` valuation and one
recursive ``evaluate`` per candidate — is kept here verbatim as the
reference (only its lenient ``default=False`` lookup is noted below), and
the kernel must return the same survivors in the same order.

The second half pins the counters and answers of the paper's XMark
queries to values written down at the parent commit, so the kernel
cannot change what the engine probes or keeps without a diff here.
"""

import hashlib
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.datasets import exp2_query, fig7_query, generate_xmark
from repro.engine import GTEA, EvaluationStats, ExecutionState, prune
from repro.engine.operators import instantiate_operators, run_pipeline
from repro.engine.prune import PruningContext, _filter_downward
from repro.graph import DataGraph
from repro.logic import FALSE, TRUE, And, Not, Or, Var, evaluate, land, lnot, lor
from repro.logic.sat import TABLE_MAX_VARS
from repro.query import QueryBuilder, evaluate_naive
from repro.query.gtpq import EdgeType
from repro.reachability import build_reachability, three_hop
from repro.reachability.three_hop import ContourSet


def _reference_filter_downward(context, node_id, candidates, refined, fext):
    """``prune._filter_downward`` as of the parent commit, verbatim.

    ``default=False`` made a variable without a child valuation read as
    FALSE; the kernel raises instead (see the strictness test), so the
    comparisons below only use formulas over the node's children.
    """
    query, graph = context.query, context.graph
    ad_children = [c for c in query.children[node_id] if query.edge_type(c) is EdgeType.DESCENDANT]
    pc_children = [c for c in query.children[node_id] if query.edge_type(c) is EdgeType.CHILD]
    pc_parent_sets = {
        c: {p for w in refined[c] for p in graph.predecessors(w)}
        for c in pc_children
    }

    if not ad_children:
        ad_valuations = {}
    else:
        # The per-component valuations, read off the index's kernel.
        components = set(context.reach.components(candidates))
        hits = context.reach.index.downward(components, [context.prepared[c] for c in ad_children])
        ad_valuations = {
            component: {c: component in hit for c, hit in zip(ad_children, hits)}
            for component in components
        }

    survivors: list[int] = []
    for candidate in candidates:
        component = context.reach.component_of(candidate)
        valuation = dict(ad_valuations.get(component, {}))
        for child_id, parent_set in pc_parent_sets.items():
            valuation[child_id] = candidate in parent_set
        if evaluate(fext, valuation, default=False):
            survivors.append(candidate)
    return survivors


def make_context(graph, edges, refined, index):
    """A one-level query ``u -> c0..ck`` over ``graph``, ready to filter.

    ``edges[i]`` is the edge type into child ``c{i}``; ``refined`` maps
    every child to its (already refined) survivor list.
    """
    builder = QueryBuilder().backbone("u")
    for position, edge in enumerate(edges):
        builder.predicate(f"c{position}", parent="u", edge=edge)
    query = builder.build()
    context = PruningContext(graph, query, build_reachability(graph, index))
    for child, nodes in refined.items():
        if query.edge_type(child) is EdgeType.DESCENDANT:
            context.prepared_set(child, nodes)
    return context


def assert_same_survivors(graph, edges, refined, candidates, fext, index="3hop"):
    context = make_context(graph, edges, refined, index)
    expected = _reference_filter_downward(context, "u", list(candidates), refined, fext)
    assert list(_filter_downward(context, "u", list(candidates), refined, fext)) == expected
    return expected


# ----------------------------------------------------------------------
# Generated cases
# ----------------------------------------------------------------------
@st.composite
def digraphs(draw):
    """Small digraphs; cycles and self-loops included."""
    size = draw(st.integers(1, 14))
    node = st.integers(0, size - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * size))
    return DataGraph.from_edges(["x"] * size, edges)


def node_subsets(graph):
    """Ascending id lists, as candidate and survivor sets are."""
    return st.sets(st.integers(0, graph.num_nodes - 1)).map(sorted)


def formulas(names):
    """Raw connectives (no folding): nested constants and double negation
    reach the kernel as written."""
    leaves = st.sampled_from([Var(name) for name in names] + [TRUE, FALSE])
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            inner.map(Not),
            st.lists(inner, min_size=1, max_size=3).map(And),
            st.lists(inner, min_size=1, max_size=3).map(Or),
        ),
        max_leaves=12,
    )


@st.composite
def kernel_cases(draw, edge_types=("pc", "ad")):
    graph = draw(digraphs())
    edges = draw(st.lists(st.sampled_from(edge_types), min_size=1, max_size=5))
    names = [f"c{position}" for position in range(len(edges))]
    refined = {name: draw(node_subsets(graph)) for name in names}
    # Any subset of the nodes: a full ``mat(u)`` or a shard of one.
    candidates = draw(node_subsets(graph))
    return graph, edges, refined, candidates, draw(formulas(names))


@settings(max_examples=300, deadline=None)
@given(kernel_cases(), st.sampled_from(["3hop", "interval", "tc"]))
def test_kernel_equals_reference_on_mixed_children(case, index):
    assert_same_survivors(*case, index=index)


@settings(max_examples=100, deadline=None)
@given(kernel_cases(edge_types=("pc",)))
def test_kernel_equals_reference_on_pc_only_children(case):
    assert_same_survivors(*case)


@settings(max_examples=100, deadline=None)
@given(kernel_cases(edge_types=("ad",)), st.sampled_from(["3hop", "interval"]))
def test_kernel_equals_reference_on_ad_only_children(case, index):
    assert_same_survivors(*case, index=index)


# ----------------------------------------------------------------------
# Named cases, on one graph with a cyclic component
# ----------------------------------------------------------------------
def cyclic_graph():
    """0 -> 1 -> 2 -> 1 (a cycle), 2 -> 3, 0 -> 4, 5 isolated, 6 -> 6."""
    return DataGraph.from_edges("abcdefg", [(0, 1), (1, 2), (2, 1), (2, 3), (0, 4), (6, 6)])


EVERY_NODE = list(range(7))


@pytest.mark.parametrize("index", ["3hop", "interval"])
@pytest.mark.parametrize(
    "edges, refined, fext, expected",
    [
        pytest.param(("pc",), {"c0": [1, 4]}, Var("c0"), [0, 2], id="pc"),
        pytest.param(("pc",), {"c0": [1, 4]}, Not(Var("c0")), [1, 3, 4, 5, 6], id="not-pc"),
        pytest.param(("ad",), {"c0": [3]}, Var("c0"), [0, 1, 2], id="ad"),
        pytest.param(("ad",), {"c0": [3]}, Not(Var("c0")), [3, 4, 5, 6], id="not-ad"),
        # 1 and 2 reach each other, 6 reaches itself; 0 reaches the cycle.
        pytest.param(("ad",), {"c0": [1, 6]}, Var("c0"), [0, 1, 2, 6], id="ad-cyclic"),
        pytest.param(
            ("pc", "ad"),
            {"c0": [4], "c1": [3]},
            And([Var("c1"), Not(Var("c0"))]),
            [1, 2],
            id="mixed-and-not",
        ),
        pytest.param(
            ("pc", "ad", "pc"),
            {"c0": [4], "c1": [6], "c2": [3]},
            Or([And([Var("c0"), Var("c1")]), Or([Var("c2"), Not(Or([Var("c1"), Var("c0")]))])]),
            [1, 2, 3, 4, 5],
            id="nested",
        ),
        pytest.param(("pc",), {"c0": []}, Var("c0"), [], id="empty-child"),
        pytest.param(("ad",), {"c0": []}, Not(Var("c0")), EVERY_NODE, id="not-empty-child"),
        pytest.param(
            ("pc",), {"c0": [1]}, Or([Var("c0"), TRUE]), EVERY_NODE, id="constant-true-inside"
        ),
        pytest.param(
            ("pc",), {"c0": [1]}, And([Not(FALSE), Var("c0"), TRUE]), [0, 2], id="constants-folded"
        ),
    ],
)
def test_named_cases(edges, refined, fext, expected, index):
    survivors = assert_same_survivors(cyclic_graph(), edges, refined, EVERY_NODE, fext, index)
    assert survivors == expected


@pytest.mark.parametrize("index", ["3hop", "tc"])
def test_candidate_shard_complements_within_the_shard(index):
    """``Not`` is relative to the list the kernel was handed: a slice of
    ``mat(u)`` keeps its own order and never gains a node outside it."""
    shard = [5, 3, 1]  # not ascending on purpose: order is the caller's
    case = (cyclic_graph(), ("pc", "ad"), {"c0": [1, 4], "c1": [3]}, shard)
    neither = Not(And([Var("c0"), Var("c1")]))
    assert assert_same_survivors(*case, neither, index) == [5, 3, 1]
    assert assert_same_survivors(*case, Not(Var("c1")), index) == [5, 3]


@pytest.mark.parametrize("seed", range(5))
def test_no_width_limit(seed):
    """More children than the truth-table kernel of ``repro.logic.sat``
    takes: the set kernel has no table and therefore no cap."""
    rng = random.Random(seed)
    width = TABLE_MAX_VARS + 3
    size = 40
    graph = DataGraph.from_edges(
        ["x"] * size, [(rng.randrange(size), rng.randrange(size)) for _ in range(3 * size)]
    )
    edges = [rng.choice(("pc", "ad")) for _ in range(width)]
    names = [f"c{position}" for position in range(width)]
    refined = {name: sorted(rng.sample(range(size), rng.randrange(6))) for name in names}
    literals = [Var(name) if rng.random() < 0.7 else lnot(Var(name)) for name in names]
    # A disjunction of three-literal terms over every child, each child used.
    rng.shuffle(literals)
    fext = lor(*(land(*literals[start : start + 3]) for start in range(0, width, 3)))
    assert len(fext.variables()) == width
    survivors = assert_same_survivors(
        graph, edges, refined, list(range(size)), fext, rng.choice(("3hop", "interval"))
    )
    assert survivors  # the case is not vacuous


def test_variable_without_child_valuation_is_an_error():
    """The old loop read an unknown variable as FALSE; the kernel names
    the node and the variable instead of keeping or dropping silently."""
    context = make_context(cyclic_graph(), ("pc",), {"c0": [1]}, "3hop")
    arguments = (context, "u", EVERY_NODE, {"c0": [1]}, Or([Var("c0"), Var("ghost")]))
    with pytest.raises(KeyError, match=r"'u'.*'ghost'"):
        _filter_downward(*arguments)
    assert _reference_filter_downward(*arguments) == [0, 2]


# ----------------------------------------------------------------------
# Prepared sets: the pruning context's own, built on first need
# ----------------------------------------------------------------------
def test_an_installed_set_is_read_not_rebuilt(monkeypatch):
    """A set in ``context.prepared`` is the one the filter reads: here
    the contour of ``[4]`` stands in for the child's set ``[3]``, so only
    4's ancestor 0 survives, and nothing is prepared or merged again."""
    graph = cyclic_graph()
    context = make_context(graph, ("ad",), {"c0": [4]}, "3hop")
    installed = context.prepared["c0"]
    contour = installed.pred
    monkeypatch.setattr(context.reach.index, "prepare", None)  # a rebuild would raise
    monkeypatch.setattr(three_hop, "merge_pred_lists", None)
    assert list(_filter_downward(context, "u", EVERY_NODE, {"c0": [3]}, Var("c0"))) == [0]
    assert context.prepared == {"c0": installed} and installed.pred is contour


def test_a_missing_set_is_built_once_from_the_refined_set():
    context = make_context(cyclic_graph(), ("ad",), {}, "3hop")
    assert context.prepared == {}
    survivors = _filter_downward(context, "u", EVERY_NODE, {"c0": [3]}, Var("c0"))
    assert list(survivors) == [0, 1, 2]
    built = context.prepared["c0"]
    assert context.prepared_set("c0", [3]) is built


def run_pipeline_of(graph, query, index):
    engine = GTEA(graph, index=index)
    plan = engine.compile(query)
    state = ExecutionState(engine, plan.query, EvaluationStats())
    run_pipeline(state, instantiate_operators(plan.physical.operators))
    assert state.answer == evaluate_naive(query, graph)
    return state


def ad_chain_query():
    """``a // b // c``, outputs ``a`` and ``c``."""
    builder = QueryBuilder().backbone("a").backbone("b", parent="a").backbone("c", parent="b")
    return builder.outputs("a", "c").build()


def recorded_sets(monkeypatch):
    """Every ``(query node, prepared set)`` a run reads, in order."""
    reads = []
    prepared_set = PruningContext.prepared_set

    def recording(context, node_id, nodes):
        prepared = prepared_set(context, node_id, nodes)
        reads.append((node_id, prepared))
        return prepared

    monkeypatch.setattr(PruningContext, "prepared_set", recording)
    return reads


def test_a_tc_execution_builds_no_contour(monkeypatch):
    reads = recorded_sets(monkeypatch)
    run_pipeline_of(cyclic_graph(), ad_chain_query(), "tc")
    assert reads and not any(isinstance(prepared, ContourSet) for _, prepared in reads)


def test_a_3hop_execution_builds_the_contours_its_parents_read(monkeypatch):
    reads = recorded_sets(monkeypatch)
    run_pipeline_of(cyclic_graph(), ad_chain_query(), "3hop")

    def built(contour):
        return {node for node, prepared in reads if getattr(prepared, contour) is not None}

    # Predecessor contours of the AD children's downward sets: the
    # root's is never read, so never built.
    assert built("_pred") == {"b", "c"}
    # Successor contours of the AD parents' upward sets: the leaf is
    # never a parent, so it has none.
    assert built("_succ") == {"a", "b"}


# ----------------------------------------------------------------------
# DataGraph.parents_of
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_parents_of_is_the_union_of_predecessors(data):
    graph = data.draw(digraphs())
    nodes = data.draw(node_subsets(graph))
    expected = set()
    for node in nodes:
        expected.update(graph.predecessors(node))
    assert graph.parents_of(nodes) == expected
    assert graph.parents_of(tuple(nodes)) == expected
    assert graph.parents_of(set(nodes)) == expected


def test_parents_of_edges():
    graph = cyclic_graph()
    assert graph.parents_of([]) == set()
    assert graph.parents_of([0, 5]) == set()
    assert graph.parents_of([1, 6]) == {0, 2, 6}
    assert DataGraph().parents_of([]) == set()
    for bad in ([7], [0, 7], [-1], [-1, 3]):
        with pytest.raises(IndexError):
            graph.parents_of(bad)
    with pytest.raises(IndexError):
        DataGraph().parents_of([0])


# ----------------------------------------------------------------------
# Counter parity with the parent commit
# ----------------------------------------------------------------------
#: Written from the parent commit (per-candidate ``evaluate`` loop) over
#: ``generate_xmark(scale=0.05, seed=97)`` with a fresh ``GTEA`` per query;
#: never recomputed by the code under test.  The index lookups and entries
#: of q1, q2 and NEG3 were re-measured once successor contours came to be
#: built on first read: the upward pass no longer merges one for a node
#: that is never an AD parent.
# fmt: off
PARENT_COUNTERS = {
    "q1": {
        "groups": dict(person_group=2, item_group=0, seller_group=0),
        "downward_prune_ops": 8,
        "candidates_after_downward": {
            "current": 108, "education": 66, "city": 76, "address": 76, "person": 6,
            "personref": 5, "bidder": 5, "open_auction": 5,
        },
        "index_lookups": 147,
        "index_entries": 1665,
        "rows": 5,
        "answers_sha256": "e43e3d2236aec071979fa03b2a312054836a347001698830e75f35f155a47660",
    },
    "q2": {
        "groups": dict(person_group=0, item_group=3, seller_group=0),
        "downward_prune_ops": 11,
        "candidates_after_downward": {
            "current": 108, "location": 108, "item": 11, "item_ref": 18, "education": 66,
            "city": 76, "address": 76, "person": 4, "personref": 4, "bidder": 4,
            "open_auction": 2,
        },
        "index_lookups": 133,
        "index_entries": 1604,
        "rows": 2,
        "answers_sha256": "f95ab7011091c1a8c213838e224fca81e633f78023f0d872a3720cc18d69428b",
    },
    "q3": {
        "groups": dict(person_group=0, item_group=3, seller_group=0),
        "downward_prune_ops": 14,
        "candidates_after_downward": {
            "current": 108, "profile": 92, "person2": 11, "seller": 11, "location": 108,
            "item": 11, "item_ref": 18, "education": 66, "city": 76, "address": 76,
            "person": 4, "personref": 4, "bidder": 4, "open_auction": 0,
        },
        "index_lookups": 66,
        "index_entries": 821,
        "rows": 0,
        "answers_sha256": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    },
    "DIS3": {
        "groups": dict(person_group=2, item_group=2, seller_group=2),
        "downward_prune_ops": 15,
        "candidates_after_downward": {
            "profile": 92, "person2": 10, "seller": 9, "mail": 53, "mailbox": 33,
            "location": 108, "item_elem": 5, "item": 4, "education": 66, "city": 76,
            "address": 76, "person": 6, "personref": 5, "bidder": 5, "open_auction": 15,
        },
        "index_lookups": 66,
        "index_entries": 793,
        "rows": 15,
        "answers_sha256": "8ac535ab434772e8201472195ba9c76ed5ac529a36591f1b40e464e394e2a72d",
    },
    "NEG3": {
        "groups": dict(person_group=1, item_group=2, seller_group=1),
        "downward_prune_ops": 13,
        "candidates_after_downward": {
            "profile": 92, "person2": 9, "seller": 10, "mail": 53, "mailbox": 33,
            "location": 108, "item_elem": 5, "item": 4, "education": 66, "person": 4,
            "personref": 6, "bidder": 6, "open_auction": 2,
        },
        "index_lookups": 66,
        "index_entries": 802,
        "rows": 3,
        "answers_sha256": "cf20285f3a6181e966e845fc3e93d6bcb967802838096c8c3f3399387a1ef83f",
    },
    "DIS_NEG4": {
        "groups": dict(person_group=0, item_group=0, seller_group=1),
        "downward_prune_ops": 13,
        "candidates_after_downward": {
            "profile": 92, "person2": 9, "seller": 10, "mail": 53, "mailbox": 33,
            "location": 108, "item_elem": 0, "item": 0, "education": 66, "person": 8,
            "personref": 12, "bidder": 12, "open_auction": 11,
        },
        "index_lookups": 66,
        "index_entries": 821,
        "rows": 11,
        "answers_sha256": "9b06b7179856172a1249a3e56c18036ea704128ac50a7678fef0f19cb6aa975c",
    },
}
# fmt: on


@pytest.fixture(scope="module")
def xmark_graph():
    return generate_xmark(scale=0.05, seed=97).graph


@pytest.mark.parametrize("name", PARENT_COUNTERS)
def test_counters_and_answers_repeat_the_parent_commit(xmark_graph, name):
    golden = PARENT_COUNTERS[name]
    make = fig7_query if name in ("q1", "q2", "q3") else exp2_query
    query = make(name, **golden["groups"])
    answers, stats = GTEA(xmark_graph).evaluate_with_stats(query)
    assert stats.downward_prune_ops == golden["downward_prune_ops"]
    assert stats.candidates_after_downward == golden["candidates_after_downward"]
    assert stats.index_lookups == golden["index_lookups"]
    assert stats.index_entries == golden["index_entries"]
    assert len(answers) == golden["rows"]
    digest = hashlib.sha256(repr(sorted(answers)).encode()).hexdigest()
    assert digest == golden["answers_sha256"]
    assert answers == evaluate_naive(query, xmark_graph)
