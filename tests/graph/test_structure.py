"""The graph-owned component numbering: grown on demand, exact, never changed.

A graph lineage has one :class:`Condensation`, which numbers a node only
when something asks for it, together with its descendant cone.  After any
interleaving of mutations, demands and covers, the numbered part must
equal a from-scratch condensation of the current graph up to relabelling
(same SCC partition, ``cyclic`` flags and successor rows), with ids in
reverse topological order; an id once given must never change (services,
pickles and users hold them across mutations); and a numbering completed
from nothing must equal the from-scratch condensation id for id, because
component numbering fixes the engine's iteration order and with it the
documented probe-count parity.  The references below are the algorithms
as they stood before the snapshot existed, kept here verbatim: the
per-graph ``Condensation`` and the traversal-based ``graph_stats`` —
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
from repro.engine import GTEA, QuerySession
from repro.graph import (
    Condensation,
    DataGraph,
    GraphStats,
    StaleLineageError,
    condense,
    depth_stats,
    graph_stats,
)
from repro.graph.traversal import node_depths, topological_order
from repro.query import evaluate_naive
from repro.reachability import available_indexes, build_reachability

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
    condensation = Condensation(graph).complete()
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


def assert_numbered_part_is_fresh_build(condensation, graph, reference=None):
    """What ``condensation`` has numbered equals a from-scratch build of
    ``graph`` up to relabelling — whole components, their ``cyclic`` flags
    and successor rows — and its ids are reverse topological."""
    reference = reference or ReferenceCondensation(graph)
    relabel = {}
    for node, ours in enumerate(condensation.scc_of):
        if ours >= 0:
            assert relabel.setdefault(ours, reference.scc_of[node]) == reference.scc_of[node]
    assert sorted(relabel) == list(range(condensation.num_components))
    for ours, theirs in relabel.items():
        assert {condensation.scc_of[node] for node in reference.members[theirs]} == {ours}
        assert condensation.cyclic[ours] == reference.cyclic[theirs]
        row = condensation._succ[ours]
        assert all(successor < ours for successor in row)  # reverse topological
        assert sorted(relabel[successor] for successor in row) == reference._succ[theirs]
    assert condensation.covered == sum(1 for ours in condensation.scc_of if ours >= 0)
    assert condensation.num_edges == sum(map(len, condensation._succ))
    assert condensation.is_trivial() == (not any(condensation.cyclic))
    return reference


def assert_is_fresh_build(structure, graph):
    """``structure``, completed, equals a from-scratch build up to
    relabelling, its DAG view included; and a numbering completed from
    nothing equals that build id for id."""
    reference = ReferenceCondensation(graph)
    condensation = structure.complete()
    assert_numbered_part_is_fresh_build(condensation, graph, reference)
    assert condensation.num_components == len(reference.members)
    assert list(structure.dag.order) == reference.order
    assert structure.version == graph.version
    assert fields_of(Condensation(graph).complete()) == fields_of(reference)
    return reference


def numbering_of(condensation):
    """What a numbering has given so far: ids by node, rows and flags by id."""
    ids = {node: ours for node, ours in enumerate(condensation.scc_of) if ours >= 0}
    return ids, as_lists(condensation._succ), list(condensation.cyclic)


def assert_extends(condensation, taken):
    """Every id, row and flag of ``taken`` is still in ``condensation``."""
    ids, rows, cyclic = taken
    assert {node: condensation.scc_of[node] for node in ids} == ids
    assert as_lists(condensation._succ[: len(rows)]) == rows
    assert condensation.cyclic[: len(cyclic)] == cyclic


# ----------------------------------------------------------------------
# The numbering under arbitrary mutation / demand / cover interleavings
# ----------------------------------------------------------------------
class SnapshotMachine(RuleBasedStateMachine):
    """One graph; every kind of mutation; demands and covers of random
    node sets at arbitrary points."""

    def __init__(self):
        super().__init__()
        self.graph = DataGraph()
        self.view = None  # the latest view handed out
        self.broken = False  # an edge left a numbered node since
        #: (view, what its lineage had numbered when it was handed out)
        self.held = []
        self.expected = dict.fromkeys(("builds", "extensions", "hits", "label_builds"), 0)

    def _pick(self, data, low, high):
        return data.draw(st.integers(min_value=low, max_value=high - 1))

    def _numbered(self, node):
        scc_of = self.view.condensation.scc_of if self.view and not self.broken else ()
        return node < len(scc_of) and scc_of[node] >= 0

    def _edge(self, source, target):
        numbered = self._numbered(source)
        if self.graph.add_edge(source, target) and numbered:
            self.broken = True

    def _demand(self):
        graph, previous = self.graph, self.view
        if previous is not None and previous.version == graph.version:
            self.expected["hits"] += 1
        elif previous is not None and not self.broken:
            self.expected["extensions"] += 1
        else:
            self.expected["builds"] += 1
        view = graph.structure()
        # Hits and extensions stay on the lineage; a build starts one.
        if previous is not None:
            assert (view.lineage is previous.lineage) == (not self.broken)
            assert self.broken or view.condensation is previous.condensation  # nothing copied
        if view is not previous:
            self.held.append((view, numbering_of(view.condensation)))
        self.view, self.broken = view, False
        return view

    @rule(label=st.sampled_from([None, "x", "y", "z", 7]))
    def add_node(self, label):
        self.graph.add_node(label=label)

    @precondition(lambda self: self.graph.num_nodes > 0)
    @rule(data=st.data())
    def edge_out_of_an_unnumbered_node(self, data):
        sources = [node for node in self.graph.nodes() if not self._numbered(node)]
        if sources:
            source = sources[self._pick(data, 0, len(sources))]
            self._edge(source, self._pick(data, 0, self.graph.num_nodes))

    @precondition(lambda self: self.graph.num_nodes > 0)
    @rule(data=st.data())
    def self_loop_on_an_unnumbered_node(self, data):
        sources = [node for node in self.graph.nodes() if not self._numbered(node)]
        if sources:
            node = sources[self._pick(data, 0, len(sources))]
            self._edge(node, node)

    @precondition(lambda self: self.graph.num_nodes > 0)
    @rule(data=st.data())
    def edge_between_any_nodes(self, data):
        # Out of a numbered node it breaks the lineage.
        n = self.graph.num_nodes
        self._edge(self._pick(data, 0, n), self._pick(data, 0, n))

    @precondition(lambda self: self.graph.num_edges > 0)
    @rule(data=st.data())
    def duplicate_edge(self, data):
        edges = list(self.graph.edges())
        version = self.graph.version
        assert not self.graph.add_edge(*edges[self._pick(data, 0, len(edges))])
        assert self.graph.version == version

    @precondition(lambda self: self.graph.num_nodes > 0)
    @rule(data=st.data())
    def cover(self, data):
        """Number a random node set, as a query mapping its candidates does."""
        nodes = data.draw(st.sets(st.integers(0, self.graph.num_nodes - 1), max_size=4))
        condensation = self._demand().condensation
        before = numbering_of(condensation)
        covers = condensation.covers
        condensation.cover(nodes)
        assert all(condensation.scc_of[node] >= 0 for node in nodes)
        assert condensation.covers == covers + (condensation.covered > len(before[0]))
        assert_extends(condensation, before)
        assert_numbered_part_is_fresh_build(condensation, copy.deepcopy(self.graph))

    @rule(with_stats=st.booleans(), derive=st.booleans())
    def demand_structure(self, with_stats, derive):
        graph = self.graph
        structure = self._demand()
        if with_stats:
            # Append, old→old and cyclic-new-node steps alike: the running
            # counts and the depths equal a whole-graph pass.
            assert stats_and_depths(graph) == whole_graph_stats(copy.deepcopy(graph))
            self.expected["hits"] += 2  # the acyclicity's and the depths' demand
            self.expected["label_builds"] = 1
        # A copy is completed without touching the lineage, so covers
        # keep meeting a partial numbering.
        checked = structure if derive else copy.deepcopy(structure)
        assert_is_fresh_build(checked, copy.deepcopy(graph))

    @precondition(lambda self: self.held)
    @rule(data=st.data())
    def held_view_of_a_broken_lineage_refuses(self, data):
        """A held view numbers more only while its lineage holds."""
        structure, _ = self.held[self._pick(data, 0, len(self.held))]
        condensation = structure.condensation
        missing = [node for node, ours in enumerate(condensation.scc_of) if ours < 0]
        if condensation.broken and missing:
            with pytest.raises(StaleLineageError):
                condensation.cover(missing[:1])

    @invariant()
    def numbered_ids_never_change(self):
        # Every view's lineage still holds every id, row and flag it had
        # given when the view was handed out — broken lineages included.
        for structure, taken in self.held:
            assert_extends(structure.condensation, taken)

    @invariant()
    def the_current_numbering_equals_a_fresh_build(self):
        if self.view is not None and not self.broken:
            condensation = self.view.condensation
            assert not condensation.broken
            assert_numbered_part_is_fresh_build(condensation, self.graph)

    @invariant()
    def postings_equal_a_rebuild(self):
        if self.graph._label_index is not None:
            assert self.graph._label_index == rebuilt_postings(self.graph)
        assert self.graph.num_roots == len(self.graph.roots())

    @invariant()
    def mutations_do_no_structural_work(self):
        info = self.graph.structure_info()
        assert {name: info[name] for name in self.expected} == self.expected
        lineage = self.view.condensation if self.view and not self.broken else None
        assert info["covered"] == (lineage.covered if lineage else 0)


TestSnapshotMachine = SnapshotMachine.TestCase
TestSnapshotMachine.settings = settings(max_examples=150, stateful_step_count=40, deadline=None)


@pytest.mark.parametrize("seed", range(60))
def test_seeded_append_deltas_extend_exactly(seed):
    """Append epochs of the churn workload's shape, larger than the state
    machine explores: new nodes citing old ones and each other, with a
    random part of the graph numbered between them."""
    rng = random.Random(seed)
    graph = DataGraph()
    for _ in range(rng.randint(1, 40)):
        graph.add_node(label="x")
    for _ in range(rng.randint(0, 120)):
        graph.add_edge(rng.randrange(graph.num_nodes), rng.randrange(graph.num_nodes))
    held = []
    for epoch in range(6):
        structure = graph.structure()
        condensation = structure.condensation
        condensation.cover(rng.sample(graph.nodes(), min(graph.num_nodes, rng.randint(0, 5))))
        assert_numbered_part_is_fresh_build(condensation, graph)
        if epoch % 2:
            assert_is_fresh_build(structure, graph)
            assert stats_and_depths(graph) == whole_graph_stats(graph)
        held.append(numbering_of(condensation))
        first = graph.num_nodes
        for _ in range(rng.randint(1, 5)):
            graph.add_node(label="y")
        for _ in range(rng.randint(0, 12)):
            source = rng.randrange(first, graph.num_nodes)
            graph.add_edge(source, rng.randrange(graph.num_nodes))
    assert graph.structure_info()["builds"] == 1
    assert graph.structure_info()["extensions"] == 5
    for taken in held:
        assert_extends(graph.structure().condensation, taken)


def test_structure_is_lazy_and_shared():
    graph = DataGraph.from_edges("abc", [(0, 1), (1, 2), (2, 1)])
    assert graph.structure_info() == {
        "builds": 0,
        "extensions": 0,
        "hits": 0,
        "label_builds": 0,
        "covered": 0,
        "covers": 0,
        "version": None,
    }
    first = build_reachability(graph, "tc")
    assert graph.structure_info()["covered"] == 0  # tc numbers on demand
    second = build_reachability(graph, "interval")  # a full index completes
    assert first.condensation is second.condensation is graph.structure().condensation
    assert graph.structure_info()["covered"] == 3
    assert condense(graph) is first.condensation
    assert graph.structure_info()["builds"] == 1


def test_held_service_answers_for_its_own_version():
    """A held ``tc`` service across a lineage break answers every pair it
    numbered as before and refuses to number anything else."""
    graph = DataGraph.from_edges("abcd", [(0, 1), (1, 2)])
    old = build_reachability(graph, "tc")
    assert old.reaches(0, 2) and not old.reaches(2, 0)
    node = graph.add_node(label="e")
    graph.add_edge(node, 0)  # out of an unnumbered node: the lineage holds
    graph.add_edge(3, 0)  # ditto: 3 was never asked for
    assert graph.structure().lineage is old.lineage
    graph.add_edge(2, 0)  # out of a numbered node: closes a cycle, breaks
    new = build_reachability(graph, "tc")
    assert not old.reaches(2, 0) and not old.reaches(0, 0)
    assert new.reaches(2, 0) and new.reaches(0, 0) and new.reaches(node, 2)
    assert old.condensation.num_components == 3 and old.condensation.broken
    with pytest.raises(StaleLineageError):
        old.reaches(node, 2)
    with pytest.raises(StaleLineageError):
        old.components([3])
    assert graph.structure_info()["builds"] == 2


def test_snapshot_pickles_without_bookkeeping():
    """The pickled layout of a numbering is its stored fields — not its
    lock, not what it derived — however it was grown."""
    graph = DataGraph.from_edges("ab", [(0, 1)])
    graph.structure().condensation.cover([1])
    graph.add_edge(graph.add_node(label="c"), 0)
    grown = graph.structure().complete()
    assert grown.members
    clone = pickle.loads(pickle.dumps(grown))
    assert clone._members is None and clone._lock is not grown._lock
    assert fields_of(clone) == fields_of(Condensation(graph).complete())
    clone.cover(range(3))  # the clone's lock works


def test_derived_lists_stay_with_their_version():
    """Member and predecessor lists derived before the numbering grew are
    derived again after, and the lists handed out earlier are left as
    they were."""
    graph = DataGraph.from_edges("abc", [(0, 1), (1, 2), (2, 1)])
    old = graph.structure()
    old_pred, old_members = old.dag.pred, old.condensation.members
    reference = ReferenceCondensation(copy.deepcopy(graph))
    node = graph.add_node(label="d")
    graph.add_edge(node, 0)
    graph.add_edge(node, 2)
    new = graph.structure()
    assert graph.structure_info()["extensions"] == 1
    assert new.condensation is old.condensation
    assert new.dag.pred is not old_pred
    assert new.condensation.members is not old_members
    assert_is_fresh_build(new, graph)
    assert old_members == reference.members and old_pred == reference._pred


@pytest.mark.parametrize(
    "clone", [copy.deepcopy, lambda snapshot: pickle.loads(pickle.dumps(snapshot))]
)
def test_clones_do_not_depend_on_what_was_read(clone):
    """A copy or pickle of a numbering whose derived lists were read equals
    one of a numbering whose lists never were, and carries none of them."""
    graph = DataGraph.from_edges("abcd", [(0, 1), (1, 2), (2, 1), (2, 3), (3, 3)])
    unread = Condensation(graph).complete()
    read = Condensation(graph).complete()
    assert read._pred and read.members
    assert pickle.dumps(read) == pickle.dumps(unread)
    for copied in (clone(read), clone(unread)):
        assert copied._pred_rows is None
        assert copied._members is None
        assert fields_of(copied) == fields_of(ReferenceCondensation(graph))


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
    assert_is_fresh_build(graph.structure(), graph)
    # From every one-node start, then completed: the hand-off continues
    # an arbitrary numbered prefix.
    for start in graph.nodes():
        partial = Condensation(graph)
        partial.cover([start])
        assert_numbered_part_is_fresh_build(partial, graph)
        assert_numbered_part_is_fresh_build(partial.complete(), graph)


def test_cycle_among_appended_nodes_only():
    """An acyclic numbering grown by new nodes that form a cycle (and
    cite the old part): the hand-off happens inside a later cover."""
    graph = path_with_subtrees(4, 1)
    assert graph.structure().complete().is_trivial()
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
    assert not grown.complete().is_trivial()
    assert_is_fresh_build(grown, graph)


def test_appended_node_citing_one_old_cycle_twice():
    """A new node with edges to two members of one old multi-node
    component: the fast path's row holds that component once."""
    graph = DataGraph.from_edges("abcd", [(0, 1), (1, 2), (2, 1), (2, 3)])
    graph.structure().complete()
    node = graph.add_node(label="e")
    for target in (1, 2, 3, 0):
        graph.add_edge(node, target)
    assert_is_fresh_build(graph.structure(), graph)
    assert graph.structure_info()["extensions"] == 1


def test_acyclic_graphs_never_enter_tarjan(monkeypatch):
    def refuse(self, starts):
        raise AssertionError("Tarjan entered")

    monkeypatch.setattr(Condensation, "_tarjan", refuse)
    for graph in (
        generate_xmark(scale=0.05, seed=12).graph,
        generate_arxiv(num_papers=1500, num_authors=300, seed=23).graph,
    ):
        partial = Condensation(graph)
        partial.cover(range(0, graph.num_nodes, 7))
        condensation = Condensation(graph).complete()
        assert condensation.is_trivial()
        assert condensation.num_components == graph.num_nodes
    # A cyclic graph does reach the patched method.
    with pytest.raises(AssertionError, match="Tarjan entered"):
        Condensation(DataGraph.from_edges("ab", [(0, 1), (1, 0)])).complete()


# ----------------------------------------------------------------------
# Numbering on demand: what a query path numbers
# ----------------------------------------------------------------------
def test_a_partial_numbering_hands_off_to_tarjan_on_every_index(monkeypatch):
    """On cyclic graphs a numbered prefix — a random node set's cones —
    is continued by Tarjan, by the closure's covers and by the full
    builds' completion alike, and every index answers as the oracle."""
    handoffs = []
    tarjan = Condensation._tarjan

    def counted(self, starts):
        handoffs.append(len(starts))
        tarjan(self, starts)

    monkeypatch.setattr(Condensation, "_tarjan", counted)
    for seed in range(30):
        rng = random.Random(seed)
        graph = random_digraph(rng, cyclic=True)
        query = random_embedded_query(graph, 3, rng) if graph.num_nodes else None
        if query is None:
            continue
        expected = evaluate_naive(query, graph)
        prefix = rng.sample(range(graph.num_nodes), rng.randint(1, graph.num_nodes))
        for name in available_indexes():
            copied = copy.deepcopy(graph)
            copied.structure().condensation.cover(prefix)
            service = build_reachability(copied, name)
            assert GTEA(copied, reachability=service).evaluate(query) == expected, (seed, name)
            assert_numbered_part_is_fresh_build(service.condensation, copied)
    assert len(handoffs) > 30


def test_a_first_answer_numbers_only_the_cones_it_reads():
    """Deterministic counts: Fig. 7 q1 on XMark and an arXiv pattern each
    number a small part of the graph, in a few covers."""
    graph = generate_xmark(scale=0.02, seed=97).graph
    query = fig7_query("q1")
    with QuerySession(graph) as session:
        assert session.evaluate(query) == evaluate_naive(query, graph)
    info = graph.structure_info()
    # A parent whose prime children are all PC children is never mapped
    # to components by the upward pass: no AD kernel reads its set.
    assert (info["covered"], info["covers"], graph.num_nodes) == (80, 2, 1314)

    graph = generate_arxiv(num_papers=300, num_authors=60, seed=2).graph
    query = random_embedded_query(graph, 5, random.Random(2))
    with QuerySession(graph) as session:
        assert session.evaluate(query) == evaluate_naive(query, graph)
    info = graph.structure_info()
    assert (info["covered"], graph.num_nodes) == (39, 360)
    assert_numbered_part_is_fresh_build(graph.structure().condensation, graph)
