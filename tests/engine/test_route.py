"""The one execution decision a session makes: the closure's scope.

A session runs every plan through one pipeline; what it still decides
per run is where reachability comes from.  A partial-scope plan runs on
the descendant closure with its rows filled, unless the call carries
group nodes or the fill blows its budget — then it runs on the
session's default index.  Everything else runs on the index its plan
names.

The matrix walks the retired flags ``codegen × parallel × adaptive``
crossed with ``grouped × scope``, where the scope is ``full`` /
``full-ad`` (the closure rung, under the bound; a PC and an AD query),
or one of the two arms above it (the bound patched down): ``partial``
and ``ladder`` (the full-scope 3-hop pick).  The session accepts the
retired flags and ignores them, so every flag cell follows the same
route as the flag-free one.  Every cell is held to three things: the
answer equals ``evaluate_naive``, ``explain()`` prints the plan's index
and scope (and the same text as a session built without the flags),
and the run's operator records reach ``explain()``'s observed columns
exactly when it was ungrouped.
"""

import itertools
import re
from types import SimpleNamespace

import pytest

from repro.datasets import index_choice_workload
from repro.engine import QuerySession
from repro.query import AttributePredicate, QueryBuilder, evaluate_naive
from tests.engine.test_partial_session import apex_query, chain_with_wide_apex


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
    """``scope -> (graph, query, naive answer)``: an enclave query the
    planner costs to a partial index, and a bulk query it does not."""
    graph, enclave = index_choice_workload(scale=1, queries=1)
    full = pair_query("a", "b", edge="pc")
    return {
        "partial": (graph, enclave[0], evaluate_naive(enclave[0], graph)),
        "full": (graph, full, evaluate_naive(full, graph)),
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


#: matrix scope -> (case, index_name, index_scope) the plan must carry.
SCOPES = {
    "full": ("full", "tc", "full"),
    "full-ad": ("partial", "tc", "full"),  # the enclave query's AD edge, on the closure rung
    "partial": ("partial", "tc", "partial"),
    "ladder": ("full", "3hop", "full"),
}


@pytest.mark.parametrize("scope", list(SCOPES))
@pytest.mark.parametrize("codegen,parallel,adaptive,grouped", FLAGS)
def test_every_flag_combination_follows_its_route(
    request, cases, scope, codegen, parallel, adaptive, grouped
):
    if scope in ("partial", "ladder"):
        request.getfixturevalue("low_closure_bound")
    case, *index_choice = SCOPES[scope]
    graph, query, expected = cases[case]
    flags = {"codegen": codegen, "parallel": parallel, "adaptive": adaptive}
    with QuerySession(graph, result_cache_size=0, **flags) as session:
        physical = session.plan(query).compiled.physical
        assert physical.executor == "gtea"
        name, index_scope = index_choice
        assert [physical.index_name, physical.index_scope] == index_choice

        group_nodes = ("b",) if grouped else ()
        answer, stats = session.evaluate_with_stats(query, group_nodes)
        assert (ungrouped(answer) if grouped else answer) == expected

        # explain() takes no group nodes: it prints the ungrouped run.
        explained = session.explain(query)
        if index_scope == "full":
            assert f"index: {name} (" in explained
        else:
            assert f"index: [index {name}/{index_scope} · footprint" in explained
        assert not [
            line for line in explained.splitlines() if line.startswith(("[codegen]", "[parallel]"))
        ]
        assert (" obs in=" in explained) == (not grouped)

        on_closure = index_scope == "partial" and not grouped
        assert stats.partial_builds + stats.partial_hits == on_closure
        assert stats.partial_fallbacks == (index_scope == "partial" and grouped)

    # The flags change nothing: a flag-free session run the same way
    # answers and explains alike, up to the timings.
    plain = QuerySession(graph, result_cache_size=0)
    assert plain.evaluate(query, group_nodes) == answer
    assert untimed(plain.explain(query)) == untimed(explained)


def test_footprint_blow_out_runs_on_the_default_index(low_closure_bound):
    graph, query = chain_with_wide_apex(), apex_query()
    session = QuerySession(graph, result_cache_size=0)
    assert session.plan(query).compiled.physical.index_scope == "partial"
    answer, stats = session.evaluate_with_stats(query)
    assert answer == evaluate_naive(query, graph)
    assert stats.partial_fallbacks == 1 and stats.partial_builds == 0
    # The default index was pooled; the plan's inner ``tc`` never was.
    assert session.cache_info()["indexes"]["pooled"] == 1
    assert session.cache_info()["partial"]["rows"] == 0
    assert " obs in=" in session.explain(query)
