"""Random meaningful query generation (paper Section 5.2).

"We designed a query generator to randomly produce meaningful queries.
Each query node is associated with a label randomly chosen from the data
graph" — meaningful here means the pattern is *embedded* in the graph, so
its result set is nonempty.  The generator samples a random subtree of
the data (root node, then random strict descendants per branch) and lifts
the node labels into an AD-edge conjunctive query with all nodes output.

The paper sorts generated queries into a small-result group (2–50) and a
large-result group (200–1200); :func:`generate_query_groups` reproduces
that protocol with configurable bounds (result sizes scale with the
synthetic graph).

For the differential-test harness this
module also provides :func:`random_labeled_graph` (seeded random data
graphs, cycles included) and :func:`random_query_batch` (random GTPQ
workloads with *deliberately overlapping subtrees*: a configurable
fraction of each batch grafts previously generated subtree patterns
under fresh roots, the family structure of tree-query association
mining).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..engine.gtea import GTEA
from ..graph.digraph import DataGraph
from ..graph.traversal import descendants
from ..query.attribute import AttributePredicate
from ..query.builder import QueryBuilder
from ..query.gtpq import GTPQ


@dataclass
class GeneratedQuery:
    query: GTPQ
    result_size: int


def random_embedded_query(
    graph: DataGraph, size: int, rng: random.Random, max_attempts: int = 200
) -> GTPQ | None:
    """One random tree pattern of ``size`` nodes embedded in ``graph``."""
    nodes = graph.num_nodes
    for __ in range(max_attempts):
        root = rng.randrange(nodes)
        below = list(descendants(graph, root))
        if len(below) < size - 1:
            continue
        builder = QueryBuilder()
        builder.backbone("n0", label=graph.label(root))
        anchors = [("n0", root)]
        ok = True
        for index in range(1, size):
            parent_id, parent_data = anchors[rng.randrange(len(anchors))]
            pool = list(descendants(graph, parent_data))
            if not pool:
                ok = False
                break
            data_node = rng.choice(pool)
            node_id = f"n{index}"
            builder.backbone(node_id, parent=parent_id, edge="ad",
                             label=graph.label(data_node))
            anchors.append((node_id, data_node))
        if ok:
            return builder.build()
    return None


# ----------------------------------------------------------------------
# Random graphs and overlapping query batches (oracle harness inputs)
# ----------------------------------------------------------------------
def random_labeled_graph(
    num_nodes: int,
    rng: random.Random,
    labels: str = "abcd",
    edge_prob: float = 0.18,
    cycle_edges: int = 2,
) -> DataGraph:
    """A seeded random data graph with labels drawn from ``labels``.

    Forward edges (``i -> j`` with ``i < j``) appear independently with
    probability ``edge_prob``; up to ``cycle_edges`` random back edges
    are added on top, so the graph is genuinely graph-structured (cycles
    and shared descendants), not a tree or DAG.
    """
    graph = DataGraph()
    for _ in range(num_nodes):
        graph.add_node(label=rng.choice(labels))
    for source in range(num_nodes):
        for target in range(source + 1, num_nodes):
            if rng.random() < edge_prob:
                graph.add_edge(source, target)
    for _ in range(cycle_edges):
        source = rng.randrange(num_nodes)
        target = rng.randrange(num_nodes)
        if source > target:
            graph.add_edge(source, target)
    return graph


@dataclass
class _SpecNode:
    """One node of a structural query pattern, independent of node ids.

    Shared specs are grafted *by reference* into multiple queries; the
    builders below never mutate a spec after it enters the sharing pool,
    so every query built from it carries an identical subtree (and hence
    identical canonical subtree fingerprints).
    """

    label: object
    backbone: bool
    edge: str  #: edge into this node ("ad"/"pc"); ignored for roots
    children: list["_SpecNode"] = field(default_factory=list)
    fs_kind: str | None = None  #: None (conjunction), "or", or "notlast"


def _random_spec(rng: random.Random, labels, size: int) -> _SpecNode:
    """Grow a random pattern of ``size`` nodes rooted at a backbone node."""
    root = _SpecNode(label=rng.choice(labels), backbone=True, edge="ad")
    nodes = [root]
    for _ in range(size - 1):
        parent = rng.choice(nodes)
        backbone = parent.backbone and rng.random() < 0.6
        edge = "pc" if rng.random() < 0.25 else "ad"
        child = _SpecNode(label=rng.choice(labels), backbone=backbone, edge=edge)
        parent.children.append(child)
        nodes.append(child)
    for node in nodes:
        predicate_children = [c for c in node.children if not c.backbone]
        if predicate_children and rng.random() < 0.35:
            node.fs_kind = rng.choice(["or", "notlast"])
    return root


def _spec_size(spec: _SpecNode) -> int:
    return 1 + sum(_spec_size(child) for child in spec.children)


def _build_query(root: _SpecNode, rng: random.Random) -> GTPQ:
    """Instantiate a spec with fresh node ids and random outputs."""
    builder = QueryBuilder()
    backbone_ids: list[str] = []
    counter = [0]

    def add(spec: _SpecNode, parent_id: str | None) -> None:
        node_id = f"n{counter[0]}"
        counter[0] += 1
        if parent_id is None:
            builder.backbone(node_id, label=spec.label)
        elif spec.backbone:
            builder.backbone(node_id, parent=parent_id, edge=spec.edge, label=spec.label)
        else:
            builder.predicate(node_id, parent=parent_id, edge=spec.edge, label=spec.label)
        if spec.backbone:
            backbone_ids.append(node_id)
        child_ids: list[str] = []
        for child in spec.children:
            child_ids.append(f"n{counter[0]}")
            add(child, node_id)
        predicate_ids = [
            child_id
            for child_id, child in zip(child_ids, spec.children)
            if not child.backbone
        ]
        if spec.fs_kind == "or" and len(predicate_ids) >= 2:
            builder.structural(node_id, " | ".join(predicate_ids))
        elif spec.fs_kind == "notlast" and predicate_ids:
            parts = predicate_ids[:-1] + [f"!{predicate_ids[-1]}"]
            builder.structural(node_id, " & ".join(parts))

    add(root, None)
    if rng.random() < 0.5 and len(backbone_ids) > 1:
        count = rng.randint(1, len(backbone_ids))
        outputs = sorted(rng.sample(backbone_ids, count))
        builder.outputs(*outputs)
    return builder.build()


def random_query_batch(
    graph: DataGraph,
    rng: random.Random,
    batch_size: int = 6,
    size_range: tuple[int, int] = (2, 5),
    overlap: float = 0.5,
) -> list[GTPQ]:
    """A random GTPQ workload with deliberately overlapping subtrees.

    Each query is either a fresh random pattern or — with probability
    ``overlap``, once the pool is primed — a *derived* pattern: a fresh
    root with a previously generated subtree grafted underneath (plus
    optional fresh filler children).  Derived queries reproduce the
    grafted subtree exactly, so its canonical subtree fingerprints
    coincide across the batch and the subtree cache can reuse them.

    Labels are drawn from the graph's own label set — whole label values,
    so multi-character labels (e.g. XMark's ``"open_auction"``) survive
    intact — and patterns have a fighting chance of matching; batches
    still mix empty and nonempty answers, which is what a differential
    harness wants.
    """
    labels = sorted({graph.label(node) for node in graph.nodes()}, key=repr)
    pool: list[_SpecNode] = []
    queries: list[GTPQ] = []
    low, high = size_range
    for _ in range(batch_size):
        size = rng.randint(low, high)
        if pool and rng.random() < overlap:
            base = rng.choice(pool)
            root = _SpecNode(label=rng.choice(labels), backbone=True, edge="ad")
            root.children.append(base)
            filler = size - 1 - _spec_size(base)
            if filler > 0:
                root.children.append(_random_spec(rng, labels, filler))
        else:
            root = _random_spec(rng, labels, size)
        pool.append(root)
        pool.extend(child for child in root.children if _spec_size(child) > 1)
        queries.append(_build_query(root, rng))
    return queries


def generate_query_groups(
    graph: DataGraph,
    sizes: tuple[int, ...] = (5, 7, 9, 11, 13),
    queries_per_size: int = 15,
    small_range: tuple[int, int] = (2, 50),
    large_range: tuple[int, int] = (200, 1200),
    seed: int = 5,
    max_attempts: int = 400,
    engine: GTEA | None = None,
) -> dict[str, dict[int, list[GeneratedQuery]]]:
    """The paper's two query groups, per query size.

    Returns ``{"small": {size: [GeneratedQuery, ...]}, "large": {...}}``.
    Queries are evaluated with GTEA to classify by result size; generation
    keeps sampling until each bucket is filled (or attempts run out, in
    which case buckets may be short — callers should tolerate that for
    very small graphs).
    """
    rng = random.Random(seed)
    engine = engine if engine is not None else GTEA(graph)
    groups: dict[str, dict[int, list[GeneratedQuery]]] = {
        "small": {size: [] for size in sizes},
        "large": {size: [] for size in sizes},
    }
    for size in sizes:
        attempts = 0
        while attempts < max_attempts and (
            len(groups["small"][size]) < queries_per_size
            or len(groups["large"][size]) < queries_per_size
        ):
            attempts += 1
            query = random_embedded_query(graph, size, rng)
            if query is None:
                continue
            result_size = len(engine.evaluate(query))
            record = GeneratedQuery(query, result_size)
            if (
                small_range[0] <= result_size <= small_range[1]
                and len(groups["small"][size]) < queries_per_size
            ):
                groups["small"][size].append(record)
            elif (
                large_range[0] <= result_size <= large_range[1]
                and len(groups["large"][size]) < queries_per_size
            ):
                groups["large"][size].append(record)
    return groups


def enclave_graph(scale: int, rng: random.Random, span: int = 20) -> DataGraph:
    """A large DAG with a tiny rare-label *enclave* at its sink end.

    The large-graph/small-footprint shape of per-query index costing:

    * **bulk** — ``2000 * scale`` nodes over labels ``a``/``b``/``c``
      with ~2.5 local-span edges per node (O(n·span) generation), so
      the graph clears both the tiny-graph and near-tree rungs of the
      index ladder and a full build pays real 3-hop money;
    * **enclave** — ``~2%`` of the nodes, labels ``q``/``r``/``s``,
      edges strictly inside the enclave (bulk→enclave bridges exist,
      enclave→bulk edges do not), so the descendant cone of any
      enclave-label candidate set stays inside the enclave.

    Queries over the rare labels therefore have a footprint two orders
    of magnitude below the graph — a transitive closure over just that
    cone answers them without ever paying the full-graph build.
    """
    graph = DataGraph()
    bulk = 2000 * scale
    enclave = max(40, bulk // 50)
    for __ in range(bulk):
        graph.add_node(label=rng.choice("abc"))
    for target in range(1, bulk):
        lower = max(0, target - span)
        graph.add_edge(rng.randrange(lower, target), target)
        graph.add_edge(rng.randrange(lower, target), target)
        if target % 2:
            graph.add_edge(rng.randrange(lower, target), target)
    base = bulk
    for __ in range(enclave):
        graph.add_node(label=rng.choice("qrs"))
    for offset in range(1, enclave):
        target = base + offset
        lower = base + max(0, offset - span)
        graph.add_edge(rng.randrange(lower, target), target)
        graph.add_edge(rng.randrange(lower, target), target)
    for __ in range(enclave // 4):
        graph.add_edge(rng.randrange(bulk), base + rng.randrange(enclave))
    return graph


def index_choice_workload(
    scale: int = 2, queries: int = 6, seed: int = 97
) -> tuple[DataGraph, list[GTPQ]]:
    """A (graph, queries) pair where partial indexes beat full builds.

    AD chains over the rare enclave labels of :func:`enclave_graph` —
    every candidate source is a short label posting list whose
    descendant cone stays inside the enclave, so per-query costing
    (:func:`repro.plan.cost.choose_scoped_index`) picks a partial index
    and the cold first answer skips the full-graph build entirely.
    Label rotations keep the copies' fingerprints (and footprints'
    inner work) distinct while staying inside the enclave.
    """
    rng = random.Random(seed)
    graph = enclave_graph(scale, rng)
    label_pairs = [("q", "r"), ("q", "s"), ("r", "s"), ("r", "q"), ("s", "q"), ("s", "r")]
    workload: list[GTPQ] = []
    for copy in range(queries):
        head, tail = label_pairs[copy % len(label_pairs)]
        workload.append(
            QueryBuilder()
            .backbone("a", predicate=AttributePredicate.label(head))
            .backbone("b", parent="a", predicate=AttributePredicate.label(tail))
            .outputs("a", "b")
            .build()
        )
    return graph, workload
