"""The graph-owned structural snapshot: one per version, exact, never mutated.

``DataGraph.structure()`` must hand out, after any interleaving of
mutations and demands, exactly what a from-scratch condensation of the
current graph would be — id for id, because component numbering fixes the
engine's iteration order and with it the documented probe-count parity —
and a snapshot already handed out must never change (services, pickles and
users hold them across mutations).  The references below are the
algorithms as they stood before the snapshot existed, kept here verbatim:
the per-graph ``Condensation`` and the traversal-based ``graph_stats`` —
plus the ``graph_stats`` that walked every component at every call, which
the running root and label counts and ``depth_stats`` must keep equalling.
The condensation is acyclic-first with a hand-off to Tarjan at the first
back edge; the cases below place that back edge everywhere it can fall.
"""

import copy
import pickle
import random

import hypothesis.strategies as st
import pytest
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.datasets import (
    enclave_graph,
    fig7_query,
    generate_arxiv,
    generate_dblp,
    generate_xmark,
    random_embedded_query,
)
from repro.engine import QuerySession
from repro.graph import (
    Condensation,
    DataGraph,
    GraphStats,
    condense,
    depth_stats,
    graph_stats,
)
from repro.graph.condensation import GraphStructure
from repro.graph.traversal import node_depths, topological_order
from repro.query import evaluate_naive
from repro.reachability import build_reachability

FIELDS = ("scc_of", "members", "cyclic", "_succ", "_pred", "_edge_count")
#: What a snapshot derives on its first read instead of storing.
DERIVED = ("members", "_pred")
STORED = tuple(name for name in FIELDS if name not in DERIVED)


# ----------------------------------------------------------------------
# References: the pre-snapshot algorithms
# ----------------------------------------------------------------------
class ReferenceCondensation:
    """``Condensation.__init__`` of the parent commit."""

    def __init__(self, graph):
        self.scc_of, self.members = reference_tarjan(graph)
        count = len(self.members)
        self.cyclic = [len(nodes) > 1 for nodes in self.members]
        succ_sets = [set() for _ in range(count)]
        for source, target in graph.edges():
            cs, ct = self.scc_of[source], self.scc_of[target]
            if cs == ct:
                if source == target:
                    self.cyclic[cs] = True
                continue
            succ_sets[cs].add(ct)
        self._succ = [sorted(targets) for targets in succ_sets]
        self._pred = [[] for _ in range(count)]
        for source, targets in enumerate(self._succ):
            for target in targets:
                self._pred[target].append(source)
        self._edge_count = sum(len(targets) for targets in self._succ)
        self.order = list(range(count - 1, -1, -1))


def reference_tarjan(graph):
    n = graph.num_nodes
    index_of = [-1] * n
    low_link = [0] * n
    on_stack = [False] * n
    scc_of = [-1] * n
    members = []
    stack = []
    next_index = 0
    for start in range(n):
        if index_of[start] != -1:
            continue
        work = [[start, 0]]
        while work:
            frame = work[-1]
            node, position = frame
            if position == 0:
                index_of[node] = next_index
                low_link[node] = next_index
                next_index += 1
                stack.append(node)
                on_stack[node] = True
            successors = graph.successors(node)
            advanced = False
            while frame[1] < len(successors):
                successor = successors[frame[1]]
                frame[1] += 1
                if index_of[successor] == -1:
                    work.append([successor, 0])
                    advanced = True
                    break
                if on_stack[successor]:
                    low_link[node] = min(low_link[node], index_of[successor])
            if advanced:
                continue
            if low_link[node] == index_of[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    scc_of[member] = len(members)
                    component.append(member)
                    if member == node:
                        break
                members.append(component)
            work.pop()
            if work:
                parent = work[-1][0]
                low_link[parent] = min(low_link[parent], low_link[node])
    return scc_of, members


def reference_graph_stats(graph):
    """``graph_stats`` of the commit before the snapshot — two Kahn passes,
    a self-loop scan, and a scratch graph of the condensation when cyclic —
    with its depth figures beside the statistics."""
    try:
        topological_order(graph)
        acyclic = all(not graph.has_edge(node, node) for node in graph.nodes())
    except ValueError:
        acyclic = False
    if acyclic:
        depths = node_depths(graph)
    else:
        condensation = ReferenceCondensation(graph)
        dag = DataGraph()
        for _ in condensation.members:
            dag.add_node()
        for component, successors in enumerate(condensation._succ):
            for successor in successors:
                dag.add_edge(component, successor)
        depths = node_depths(dag)
    stats = GraphStats(
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        num_labels=len(graph.distinct_labels()),
        num_roots=len(graph.roots()),
        is_dag=acyclic,
    )
    return stats, depth_figures(depths)


def depth_figures(depths):
    return (max(depths), sum(depths) / len(depths)) if depths else (0, 0.0)


def stats_and_depths(graph):
    return graph_stats(graph), depth_stats(graph)


def whole_graph_stats(graph):
    """``graph_stats`` of the commit before depths were carried along a
    lineage: a depth pass over every component, an attribute pass for the
    labels and a node pass for the roots, over a condensation of its own."""
    condensation = Condensation(graph)
    successors = condensation._succ
    depths = [0] * len(successors)
    for component in range(len(successors) - 1, -1, -1):
        below = depths[component] + 1
        for successor in successors[component]:
            if below > depths[successor]:
                depths[successor] = below
    labels = {attrs["label"] for attrs in graph._attrs if attrs.get("label") is not None}
    stats = GraphStats(
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        num_labels=len(labels),
        num_roots=sum(1 for node in graph.nodes() if not graph._pred[node]),
        is_dag=condensation.is_trivial(),
    )
    return stats, depth_figures(depths)


def rebuilt_postings(graph):
    postings = {}
    for node, attrs in enumerate(graph._attrs):
        if attrs.get("label") is not None:
            postings[attrs["label"]] = postings.get(attrs["label"], ()) + (node,)
    return postings


def as_lists(rows):
    return [list(row) for row in rows]


def fields_of(condensation, names=FIELDS):
    """``names`` of ``condensation``, successor rows as lists: a component
    without successors shares one empty tuple."""
    fields = {name: getattr(condensation, name) for name in names}
    if "_succ" in fields:
        fields["_succ"] = as_lists(fields["_succ"])
    return fields


def assert_is_fresh_build(structure, graph):
    reference = ReferenceCondensation(graph)
    assert fields_of(structure.condensation) == fields_of(reference)
    assert structure.condensation.is_trivial() == (not any(reference.cyclic))
    assert list(structure.dag.order) == reference.order
    assert as_lists(structure.dag.succ) == reference._succ
    assert structure.dag.pred == reference._pred
    assert structure.version == graph.version
    return reference


# ----------------------------------------------------------------------
# Snapshot identity under arbitrary mutation / demand interleavings
# ----------------------------------------------------------------------
class SnapshotMachine(RuleBasedStateMachine):
    """One graph; every kind of mutation; demands at arbitrary points."""

    def __init__(self):
        super().__init__()
        self.graph = DataGraph()
        self.covered = 0  # nodes the latest snapshot covers
        self.append_only = True
        self.held = []  # (snapshot, its ReferenceCondensation)
        self.expected = dict.fromkeys(("builds", "extensions", "hits", "label_builds"), 0)

    def _pick(self, data, low, high):
        return data.draw(st.integers(min_value=low, max_value=high - 1))

    def _edge(self, source, target):
        if self.graph.add_edge(source, target) and source < self.covered:
            self.append_only = False

    @rule(label=st.sampled_from([None, "x", "y", "z", 7]))
    def add_node(self, label):
        self.graph.add_node(label=label)

    @precondition(lambda self: 0 < self.covered < self.graph.num_nodes)
    @rule(data=st.data())
    def edge_new_to_old(self, data):
        source = self._pick(data, self.covered, self.graph.num_nodes)
        self._edge(source, self._pick(data, 0, self.covered))

    @precondition(lambda self: self.covered < self.graph.num_nodes)
    @rule(data=st.data())
    def edge_new_to_new(self, data):
        # Either direction, so cycles among new nodes and self-loops occur.
        source = self._pick(data, self.covered, self.graph.num_nodes)
        self._edge(source, self._pick(data, self.covered, self.graph.num_nodes))

    @precondition(lambda self: self.covered < self.graph.num_nodes)
    @rule(data=st.data())
    def self_loop_on_new(self, data):
        node = self._pick(data, self.covered, self.graph.num_nodes)
        self._edge(node, node)

    @precondition(lambda self: self.covered > 0)
    @rule(data=st.data())
    def edge_old_to_old(self, data):
        self._edge(self._pick(data, 0, self.covered), self._pick(data, 0, self.covered))

    @precondition(lambda self: 0 < self.covered < self.graph.num_nodes)
    @rule(data=st.data())
    def edge_old_to_new(self, data):
        source = self._pick(data, 0, self.covered)
        self._edge(source, self._pick(data, self.covered, self.graph.num_nodes))

    @precondition(lambda self: self.graph.num_edges > 0)
    @rule(data=st.data())
    def duplicate_edge(self, data):
        edges = list(self.graph.edges())
        version = self.graph.version
        assert not self.graph.add_edge(*edges[self._pick(data, 0, len(edges))])
        assert self.graph.version == version

    @rule(with_stats=st.booleans(), derive=st.booleans())
    def demand_structure(self, with_stats, derive):
        graph = self.graph
        previous = self.held[-1][0] if self.held else None
        if previous is not None and previous.version == graph.version:
            self.expected["hits"] += 1
        elif previous is not None and self.append_only:
            self.expected["extensions"] += 1
        else:
            self.expected["builds"] += 1
        rebuilt = self.expected["builds"] - graph.structure_info()["builds"]
        structure = graph.structure()
        # Hits and extensions stay on the lineage; a build starts one.
        if previous is not None:
            assert (structure.lineage is previous.lineage) == (not rebuilt)
        if with_stats:
            # Append, old→old and cyclic-new-node steps alike: the running
            # counts and the depths equal a whole-graph pass.
            assert stats_and_depths(graph) == whole_graph_stats(copy.deepcopy(graph))
            self.expected["hits"] += 2  # the acyclicity's and the depths' demand
            self.expected["label_builds"] = 1
        # A copy is checked without deriving anything on the snapshot, so
        # read_derived may derive its member and predecessor lists first,
        # after later versions exist.
        checked = structure if derive else copy.deepcopy(structure)
        reference = assert_is_fresh_build(checked, copy.deepcopy(graph))
        assert graph.structure_info() == {**self.expected, "version": graph.version}
        if previous is None or previous is not structure:
            self.held.append((structure, reference))
        self.covered = graph.num_nodes
        self.append_only = True

    @precondition(lambda self: self.held)
    @rule(data=st.data())
    def read_derived(self, data):
        """A held snapshot's member and predecessor lists — derived now or
        kept from an earlier read — at any point of the graph's history."""
        structure, reference = self.held[self._pick(data, 0, len(self.held))]
        assert fields_of(structure.condensation, DERIVED) == fields_of(reference, DERIVED)
        assert structure.dag.pred == reference._pred

    @invariant()
    def held_snapshots_never_change(self):
        # The stored fields only: reading the derived ones here would
        # derive them at every step, leaving read_derived nothing late.
        for structure, reference in self.held:
            assert fields_of(structure.condensation, STORED) == fields_of(reference, STORED)
            assert as_lists(structure.dag.succ) == reference._succ

    @invariant()
    def postings_equal_a_rebuild(self):
        if self.graph._label_index is not None:
            assert self.graph._label_index == rebuilt_postings(self.graph)
        assert self.graph.num_roots == len(self.graph.roots())

    @invariant()
    def mutations_do_no_structural_work(self):
        info = self.graph.structure_info()
        assert {name: info[name] for name in self.expected} == self.expected


TestSnapshotMachine = SnapshotMachine.TestCase
TestSnapshotMachine.settings = settings(max_examples=150, stateful_step_count=40, deadline=None)


@pytest.mark.parametrize("seed", range(60))
def test_seeded_append_deltas_extend_exactly(seed):
    """Append epochs of the churn workload's shape, larger than the state
    machine explores: new nodes citing old ones and each other."""
    rng = random.Random(seed)
    graph = DataGraph()
    for _ in range(rng.randint(1, 40)):
        graph.add_node(label="x")
    for _ in range(rng.randint(0, 120)):
        graph.add_edge(rng.randrange(graph.num_nodes), rng.randrange(graph.num_nodes))
    held = []
    for epoch in range(6):
        structure = graph.structure()
        assert_is_fresh_build(structure, graph)
        assert stats_and_depths(graph) == whole_graph_stats(graph)
        held.append((structure, copy.deepcopy(structure.condensation)))
        first = graph.num_nodes
        for _ in range(rng.randint(1, 5)):
            graph.add_node(label="y")
        for _ in range(rng.randint(0, 12)):
            source = rng.randrange(first, graph.num_nodes)
            graph.add_edge(source, rng.randrange(graph.num_nodes))
    assert graph.structure_info()["builds"] == 1
    assert graph.structure_info()["extensions"] == 5
    for structure, taken in held:
        assert fields_of(structure.condensation) == fields_of(taken)


def test_structure_is_lazy_and_shared():
    graph = DataGraph.from_edges("abc", [(0, 1), (1, 2), (2, 1)])
    assert graph.structure_info() == {
        "builds": 0,
        "extensions": 0,
        "hits": 0,
        "label_builds": 0,
        "version": None,
    }
    first = build_reachability(graph, "tc")
    second = build_reachability(graph, "interval")
    assert first.condensation is second.condensation is graph.structure().condensation
    assert first.dag is second.dag is graph.structure().dag
    assert condense(graph) is first.condensation
    assert graph.structure_info()["builds"] == 1


def test_held_service_answers_for_its_own_version():
    graph = DataGraph.from_edges("abc", [(0, 1), (1, 2)])
    old = build_reachability(graph, "tc")
    node = graph.add_node(label="d")
    graph.add_edge(node, 0)  # append-only: extends
    graph.add_edge(2, 0)  # old -> old: closes a cycle, rebuilds
    new = build_reachability(graph, "tc")
    assert not old.reaches(2, 0) and not old.reaches(0, 0)
    assert new.reaches(2, 0) and new.reaches(0, 0) and new.reaches(node, 2)
    assert old.condensation.num_components == 3
    assert graph.structure_info()["builds"] == 2


def test_snapshot_pickles_without_bookkeeping():
    """The pickled layout of a condensation is its stored fields, whether
    it was built or extended."""
    graph = DataGraph.from_edges("ab", [(0, 1)])
    graph.structure()
    graph.add_edge(graph.add_node(label="c"), 0)
    extended = graph.structure().condensation
    clone = pickle.loads(pickle.dumps(extended))
    assert fields_of(clone) == fields_of(Condensation(graph))


def test_derived_lists_stay_with_their_version():
    """Member and predecessor lists derived on a snapshot before an append
    are not the extended snapshot's, and the held snapshot keeps answering
    for its own version."""
    graph = DataGraph.from_edges("abc", [(0, 1), (1, 2), (2, 1)])
    old = graph.structure()
    old_pred, old_members = old.dag.pred, old.condensation.members
    reference = ReferenceCondensation(copy.deepcopy(graph))
    node = graph.add_node(label="d")
    graph.add_edge(node, 0)
    graph.add_edge(node, 2)
    new = graph.structure()
    assert graph.structure_info()["extensions"] == 1
    assert new.dag.pred is not old_pred
    assert new.condensation.members is not old_members
    assert new.condensation._pred is not old.condensation._pred
    assert_is_fresh_build(new, graph)
    assert old.dag.pred is old_pred and old.condensation.members is old_members
    assert fields_of(old.condensation) == fields_of(reference)
    assert old.dag.pred == reference._pred


@pytest.mark.parametrize(
    "clone", [copy.deepcopy, lambda snapshot: pickle.loads(pickle.dumps(snapshot))]
)
def test_clones_do_not_depend_on_what_was_read(clone):
    """A copy or pickle of a snapshot whose derived lists were read equals
    one of a snapshot whose lists never were, and carries none of them."""
    graph = DataGraph.from_edges("abcd", [(0, 1), (1, 2), (2, 1), (2, 3), (3, 3)])
    unread = graph.structure()
    read = GraphStructure(Condensation(graph), graph.version)
    assert read.dag.pred and read.condensation._pred and read.condensation.members
    assert pickle.dumps(read) == pickle.dumps(unread)
    for copied in (clone(read), clone(unread)):
        assert copied.dag._pred is None
        assert copied.condensation._pred_rows is None
        assert copied.condensation._members is None
        assert_is_fresh_build(copied, graph)


# ----------------------------------------------------------------------
# graph_stats: derived from the snapshot, equal to the traversals
# ----------------------------------------------------------------------
def random_digraph(rng, cyclic):
    graph = DataGraph()
    n = rng.randint(0, 30)
    for _ in range(n):
        graph.add_node(label=rng.choice("abcd"))
    for _ in range(rng.randint(0, 3 * n) if n else 0):
        source, target = rng.randrange(n), rng.randrange(n)
        if cyclic or source < target:
            graph.add_edge(source, target)
    return graph


@pytest.mark.parametrize(
    "graph",
    [
        pytest.param(generate_xmark(scale=0.02, seed=97).graph, id="xmark-0.02"),
        pytest.param(generate_arxiv(seed=7).graph, id="arxiv"),
        pytest.param(generate_dblp().graph, id="dblp"),
        pytest.param(enclave_graph(1, random.Random(3)), id="enclave"),
    ],
)
def test_graph_stats_match_reference_on_datasets(graph):
    assert stats_and_depths(graph) == reference_graph_stats(graph)


@pytest.mark.parametrize("seed", range(200))
def test_graph_stats_match_reference_on_random_digraphs(seed):
    rng = random.Random(seed)
    graph = random_digraph(rng, cyclic=seed % 2 == 0)
    assert stats_and_depths(graph) == reference_graph_stats(graph)
    assert_is_fresh_build(graph.structure(), graph)
    if graph.num_nodes:  # and again from an extended snapshot
        graph.add_edge(graph.add_node(label="z"), 0)
        assert stats_and_depths(graph) == reference_graph_stats(graph)
        assert_is_fresh_build(graph.structure(), graph)


def test_query_path_never_walks_depths(monkeypatch):
    """Depth is a report, not a planner input: a cold first answer and an
    append-then-query step both answer with the depth walks raising."""

    def refuse(graph):
        raise AssertionError("depth walked on the query path")

    for module in ("repro.graph", "repro.graph.stats"):
        monkeypatch.setattr(f"{module}.depth_stats", refuse)
    for module in ("repro.graph", "repro.graph.traversal"):
        monkeypatch.setattr(f"{module}.node_depths", refuse)

    graph = generate_xmark(scale=0.02, seed=5).graph
    query = fig7_query("q1", person_group=2, item_group=4, seller_group=6)
    with QuerySession(graph) as session:
        assert session.evaluate(query) == evaluate_naive(query, graph)

    arxiv = generate_arxiv(num_papers=300, num_authors=60, seed=2)
    graph, rng = arxiv.graph, random.Random(2)
    patterns = [random_embedded_query(graph, 5, rng) for _ in range(20)]
    patterns = [query for query in patterns if query is not None][:3]
    assert patterns
    with QuerySession(graph) as session:
        for query in patterns:
            assert session.evaluate(query) == evaluate_naive(query, graph)
            paper = graph.add_node({"label": "paper_cat1", "kind": "paper"})
            for target in {rng.choice(arxiv.authors), rng.choice(arxiv.papers)}:
                graph.add_edge(paper, target)
            assert session.evaluate(query) == evaluate_naive(query, graph)
    assert graph.structure_info()["extensions"] == len(patterns)


# ----------------------------------------------------------------------
# Acyclic-first condensation: the postorder fast path and the hand-off
# ----------------------------------------------------------------------
def path_with_subtrees(length, fanout):
    """A path ``0 -> 1 -> ... -> length-1`` whose every node also carries
    ``fanout`` leaves, so whole subtrees close before the path's end."""
    graph = DataGraph()
    for _ in range(length):
        graph.add_node(label="p")
    for node in range(length):
        for _ in range(fanout):
            graph.add_edge(node, graph.add_node(label="leaf"))
        if node + 1 < length:
            graph.add_edge(node, node + 1)
    return graph


def forest_with_cross_edges():
    """Three trees visited in id order; the later ones point into the
    earlier ones, which are closed by then."""
    graph = DataGraph.from_edges("abcdefghi", [(0, 1), (0, 2), (3, 4), (3, 5), (6, 7), (6, 8)])
    for source, target in [(4, 1), (5, 0), (7, 2), (8, 4), (6, 3)]:
        graph.add_edge(source, target)
    return graph


def handoff_cases():
    deep = path_with_subtrees(8, 2)
    deep.add_edge(7, 2)  # back to the middle of the path, its last edge
    cross_then_cycle = forest_with_cross_edges()
    cross_then_cycle.add_edge(8, 6)  # a cycle after the cross edges
    cross_into_cycle = forest_with_cross_edges()
    cross_into_cycle.add_edge(2, 0)  # the first tree is cyclic
    return {
        # The very first edge the DFS follows is back: a self-loop on the start.
        "self-loop-on-first-start": DataGraph.from_edges("ab", [(0, 0), (0, 1)]),
        # The first back edge before any node has closed.
        "two-cycle-at-once": DataGraph.from_edges("abc", [(0, 1), (1, 0), (1, 2)]),
        "back-edge-deep-in-a-path": deep,
        "self-loop-on-a-leaf": DataGraph.from_edges("abcd", [(0, 1), (0, 2), (2, 2), (3, 2)]),
        "self-loop-on-a-later-start": DataGraph.from_edges(
            "abcd", [(0, 1), (2, 0), (3, 3), (3, 1)]
        ),
        "cross-edges-then-a-cycle": cross_then_cycle,
        "cross-edges-into-a-cycle": cross_into_cycle,
        "acyclic-cross-edges": forest_with_cross_edges(),
        "acyclic-path-with-subtrees": path_with_subtrees(8, 2),
    }


@pytest.mark.parametrize("name", sorted(handoff_cases()))
def test_postorder_and_handoff_equal_tarjan(name):
    graph = handoff_cases()[name]
    assert_is_fresh_build(GraphStructure(Condensation(graph), graph.version), graph)


def test_cycle_among_appended_nodes_only():
    """An acyclic snapshot extended by new nodes that form a cycle (and
    cite the old part): the hand-off happens inside ``extended()``."""
    graph = path_with_subtrees(4, 1)
    assert graph.structure().condensation.is_trivial()
    first = graph.num_nodes
    for _ in range(4):
        graph.add_node(label="n")
    for source, target in [
        (first, 1),
        (first, first + 1),
        (first + 1, first + 2),
        (first + 2, first),
        (first + 2, 3),
        (first + 3, first + 3),
    ]:
        graph.add_edge(source, target)
    grown = graph.structure()
    assert graph.structure_info()["extensions"] == 1
    assert not grown.condensation.is_trivial()
    assert_is_fresh_build(grown, graph)


def test_appended_node_citing_one_old_cycle_twice():
    """A new node with edges to two members of one old multi-node
    component: the fast path's row holds that component once."""
    graph = DataGraph.from_edges("abcd", [(0, 1), (1, 2), (2, 1), (2, 3)])
    graph.structure()
    node = graph.add_node(label="e")
    for target in (1, 2, 3, 0):
        graph.add_edge(node, target)
    assert_is_fresh_build(graph.structure(), graph)
    assert graph.structure_info()["extensions"] == 1


def test_acyclic_graphs_never_enter_tarjan(monkeypatch):
    def refuse(self, adjacency, first):
        raise AssertionError("Tarjan entered")

    monkeypatch.setattr(Condensation, "_tarjan", refuse)
    for graph in (
        generate_xmark(scale=0.05, seed=12).graph,
        generate_arxiv(num_papers=1500, num_authors=300, seed=23).graph,
    ):
        condensation = Condensation(graph)
        assert condensation.is_trivial()
        assert condensation.num_components == graph.num_nodes
    # A cyclic graph does reach the patched method.
    with pytest.raises(AssertionError, match="Tarjan entered"):
        Condensation(DataGraph.from_edges("ab", [(0, 1), (1, 0)]))
