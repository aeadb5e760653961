"""Ablation — the design choices behind GTEA's pruning (docs/ARCHITECTURE.md,
"Reachability and pruning").

Three levels of the downward-pruning machinery on the same workload:

1. **shared contours** (GTEA as shipped): merged per-set contours with
   chain-shared index scans (Procedure 6);
2. **per-candidate contours**: Proposition 7 checks without the shared
   chain scan (every candidate walks its own chain region);
3. **pairwise probes**: no contours at all — each candidate probes the
   3-hop index against each child candidate until a witness is found
   (what a naive use of the index would do, and roughly what the paper's
   ``|mat(uA)| x |mat(uB)|`` strawman in Section 4.1 describes).

Expected shape: 1 ≤ 2 ≤ 3, with the gap growing with candidate-set size —
this quantifies the paper's claim that contour merging is what makes
index-based pruning viable.
"""

import time
from statistics import median

from repro.bench import format_table
from repro.datasets import fig7_query
from repro.engine.prune import PruningContext
from repro.logic import evaluate
from repro.query import EdgeType, candidate_nodes
from repro.reachability.contour import merge_pred_lists, node_reaches_contour

from .conftest import emit_report


def _downward_shared(suite, query):
    """Level 1: the engine's own prune_downward."""
    from repro.engine.prune import prune_downward

    context = PruningContext(suite.graph, query, suite.gtea.reachability)
    mats = {u: candidate_nodes(suite.graph, query, u) for u in query.nodes}
    return prune_downward(context, mats)


def _downward_per_candidate(suite, query):
    """Level 2: contours, but one full Proposition-7 walk per candidate."""
    graph, reach = suite.graph, suite.gtea.reachability
    index = reach.index
    mats = {u: candidate_nodes(graph, query, u) for u in query.nodes}
    refined = {}
    for node_id in query.bottom_up():
        candidates = mats[node_id]
        children = query.children[node_id]
        if not children:
            refined[node_id] = list(candidates)
            continue
        child_sets = {
            c: set(reach.components(refined[c]))
            for c in children
            if query.edge_type(c) is EdgeType.DESCENDANT
        }
        contours = {c: merge_pred_lists(index, members) for c, members in child_sets.items()}
        pc_parents = {
            c: {p for w in refined[c] for p in graph.predecessors(w)}
            for c in children
            if query.edge_type(c) is EdgeType.CHILD
        }
        fext = query.fext(node_id)
        survivors = []
        for candidate in candidates:
            component = reach.component_of(candidate)
            valuation = {}
            for c, contour in contours.items():
                hit = node_reaches_contour(index, component, contour)
                if not hit and reach.is_cyclic_component(component):
                    hit = component in child_sets[c]
                valuation[c] = hit
            for c, parents in pc_parents.items():
                valuation[c] = candidate in parents
            if evaluate(fext, valuation, default=False):
                survivors.append(candidate)
        refined[node_id] = survivors
    return refined


def _downward_pairwise(suite, query):
    """Level 3: per-pair index probes, no contours."""
    graph, reach = suite.graph, suite.gtea.reachability
    mats = {u: candidate_nodes(graph, query, u) for u in query.nodes}
    refined = {}
    for node_id in query.bottom_up():
        candidates = mats[node_id]
        children = query.children[node_id]
        if not children:
            refined[node_id] = list(candidates)
            continue
        pc_parents = {
            c: {p for w in refined[c] for p in graph.predecessors(w)}
            for c in children
            if query.edge_type(c) is EdgeType.CHILD
        }
        fext = query.fext(node_id)
        survivors = []
        for candidate in candidates:
            valuation = {}
            for c in children:
                if c in pc_parents:
                    valuation[c] = candidate in pc_parents[c]
                else:
                    valuation[c] = any(reach.reaches(candidate, w) for w in refined[c])
            if evaluate(fext, valuation, default=False):
                survivors.append(candidate)
        refined[node_id] = survivors
    return refined


LEVELS = [
    ("shared contours", _downward_shared),
    ("per-candidate contours", _downward_per_candidate),
    ("pairwise probes", _downward_pairwise),
]


#: warm repetitions per level, after one untimed warm-up call each.
REPS = 5


def test_ablation_report(xmark_large, benchmark):
    query = fig7_query("q1", person_group=2, item_group=4, seller_group=6)
    rows = []

    def run():
        rows.clear()
        # One untimed call per level takes the process's first-call
        # warm-up, whichever level would otherwise pay it.
        reference = None
        for name, fn in LEVELS:
            survivor_sets = {u: set(v) for u, v in fn(xmark_large, query).items()}
            if reference is None:
                reference = survivor_sets
            else:
                assert survivor_sets == reference, f"{name} prunes differently"
        # Warm repetitions, the levels alternating inside each one, so
        # drift over the run reaches every level alike.
        times = {name: [] for name, __ in LEVELS}
        for __ in range(REPS):
            for name, fn in LEVELS:
                started = time.perf_counter()
                fn(xmark_large, query)
                times[name].append((time.perf_counter() - started) * 1e3)
        rows.extend([name, median(times[name])] for name, __ in LEVELS)

    benchmark.pedantic(run, rounds=1, iterations=1)
    emit_report(
        "ablation_pruning",
        format_table(
            f"Ablation: downward pruning strategies on Q1, largest scale "
            f"(median ms of {REPS} warm repetitions)",
            ["strategy", "time"],
            rows,
        ),
    )
    # All three agree on the pruned sets; shared contours must not lose
    # to pairwise probing.
    by_name = {row[0]: row[1] for row in rows}
    assert by_name["shared contours"] <= by_name["pairwise probes"] * 1.2


def test_ablation_shared(xmark_large, benchmark):
    query = fig7_query("q1", person_group=2, item_group=4, seller_group=6)
    benchmark.pedantic(lambda: _downward_shared(xmark_large, query), rounds=3, iterations=1)


def test_ablation_pairwise(xmark_large, benchmark):
    query = fig7_query("q1", person_group=2, item_group=4, seller_group=6)
    benchmark.pedantic(lambda: _downward_pairwise(xmark_large, query), rounds=3, iterations=1)
