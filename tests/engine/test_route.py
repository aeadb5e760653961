"""The one execution decision a session makes: where reachability
comes from.

A session runs every plan through one pipeline.  An ``index="auto"``
plan names ``tc``, the session's descendant closure, filled on demand
under a byte budget; a fill past the budget drops the closure, and the
plan (and every later one of that graph version) runs on the ladder's
pick.  Group evaluation takes the same route.

The matrix walks the retired flags ``codegen × parallel × adaptive``
crossed with ``grouped × scope``.  The scope is under the budget —
``full`` and ``full-ad`` (the real budget; a PC and an AD query) and
``partial`` (an enclave query under the budget patched down) — or over
it: ``ladder`` (the budget patched down, a chain whose apex fills past
it; the ladder's pick is ``interval``).  The cell ids are the ones the
retired per-query scope had.  The session accepts the retired flags and
ignores them, so every flag cell follows the same route as the
flag-free one.  Every cell is held to three things: the answer equals
``evaluate_naive``, ``explain()`` prints the index the run took (and
the same text as a session built without the flags), and the run's
operator records reach ``explain()``'s observed columns exactly when it
was ungrouped.
"""

import itertools
import re
from types import SimpleNamespace

import pytest

from repro.datasets import index_choice_workload
from repro.engine import QuerySession
from repro.query import AttributePredicate, QueryBuilder, evaluate_naive
from tests.engine.test_closure_budget import apex_query, chain_with_wide_apex


def pair_query(head, tail, edge="ad"):
    return (
        QueryBuilder()
        .backbone("a", predicate=AttributePredicate.label(head))
        .backbone("b", parent="a", edge=edge, predicate=AttributePredicate.label(tail))
        .outputs("a", "b")
        .build()
    )


@pytest.fixture(scope="module")
def cases():
    """``case -> (graph, query, naive answer)``: an enclave query with an
    AD edge, a bulk query with a PC edge, and a chain's apex query whose
    rows pass the patched budget."""
    graph, enclave = index_choice_workload(scale=1, queries=1)
    full = pair_query("a", "b", edge="pc")
    chain, apex = chain_with_wide_apex(), apex_query()
    return {
        "enclave": (graph, enclave[0], evaluate_naive(enclave[0], graph)),
        "full": (graph, full, evaluate_naive(full, graph)),
        "apex": (chain, apex, evaluate_naive(apex, chain)),
    }


def ungrouped(rows):
    """Flatten ``group_nodes=("b",)`` rows back to ``(a, b)`` tuples."""
    return {(a, dict(item)["b"]) for a, group in rows for item in group}


def untimed(text):
    return re.sub(r"[0-9.]+ms", "ms", text)


#: The shape of the retired ``ParallelOptions``, as older callers pass it.
LEGACY_PARALLEL = SimpleNamespace(workers=2, backend="serial", min_shard_size=1)

FLAGS = list(
    itertools.product((False, "auto"), (None, LEGACY_PARALLEL), (False, True), (False, True))
)


#: matrix scope -> (case, budget patched down, index the run takes).
SCOPES = {
    "full": ("full", False, "tc"),
    "full-ad": ("enclave", False, "tc"),
    "partial": ("enclave", True, "tc"),
    "ladder": ("apex", True, "interval"),
}


@pytest.mark.parametrize("scope", list(SCOPES))
@pytest.mark.parametrize("codegen,parallel,adaptive,grouped", FLAGS)
def test_every_flag_combination_follows_its_route(
    request, cases, scope, codegen, parallel, adaptive, grouped
):
    case, patched, ran_on = SCOPES[scope]
    if patched:
        request.getfixturevalue("low_closure_bound")
    graph, query, expected = cases[case]
    flags = {"codegen": codegen, "parallel": parallel, "adaptive": adaptive}
    with QuerySession(graph, result_cache_size=0, **flags) as session:
        physical = session.plan(query).compiled.physical
        assert (physical.executor, physical.index_name) == ("gtea", "tc")

        group_nodes = ("b",) if grouped else ()
        answer, __ = session.evaluate_with_stats(query, group_nodes)
        assert (ungrouped(answer) if grouped else answer) == expected

        # explain() takes no group nodes: it prints the ungrouped run.
        explained = session.explain(query)
        assert f"\nindex: {ran_on} (" in explained
        assert not [
            line for line in explained.splitlines() if line.startswith(("[codegen]", "[parallel]"))
        ]
        assert (" obs in=" in explained) == (not grouped)

        over = ran_on != "tc"
        info = session.cache_info()
        assert (info["partial"]["dropped"], info["indexes"]["pooled"]) == (over, over)

    # The flags change nothing: a flag-free session run the same way
    # answers and explains alike, up to the timings.
    plain = QuerySession(graph, result_cache_size=0)
    assert plain.evaluate(query, group_nodes) == answer
    assert untimed(plain.explain(query)) == untimed(explained)


def test_footprint_blow_out_runs_on_the_default_index(low_closure_bound):
    graph, query = chain_with_wide_apex(), apex_query()
    session = QuerySession(graph, result_cache_size=0)
    assert session.plan(query).compiled.physical.index_name == "tc"
    answer, __ = session.evaluate_with_stats(query)
    assert answer == evaluate_naive(query, graph)
    # The closure was dropped before its rows passed the budget; the
    # ladder's pick was pooled and the run's records reach explain().
    info = session.cache_info()
    assert (info["partial"]["rows"], info["partial"]["dropped"]) == (0, 1)
    assert info["indexes"]["pooled"] == 1
    explained = session.explain(query)
    assert "\nindex: interval (" in explained
    assert " obs in=" in explained
