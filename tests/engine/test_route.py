"""The execution route: decided once, consumed by execution and
``explain()`` alike.

The matrix test walks the full flag product — ``codegen × parallel ×
adaptive × grouped × scope`` — where the scope is ``full`` / ``full-ad``
(the closure rung, under the bound; a PC and an AD query), or one of the
two arms above it (the bound patched down): ``partial`` and ``ladder``
(the full-scope 3-hop pick).
Every cell is held to three things: the answer equals
``evaluate_naive``, ``explain()`` prints exactly what
:func:`repro.plan.route.decide_route` renders, and the run's operator
records reach ``explain()``'s observed columns exactly when it was
interpreted and ungrouped.
"""

import itertools

import pytest

from repro.datasets import index_choice_workload
from repro.engine import ParallelOptions, QuerySession
from repro.plan import codegen_refusal, compile_query, decide_route
from repro.query import AttributePredicate, QueryBuilder, evaluate_naive
from tests.engine.test_partial_session import apex_query, chain_with_wide_apex

SERIAL = ParallelOptions(workers=2, backend="serial", min_shard_size=1)


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


FLAGS = list(itertools.product((False, "auto"), (None, SERIAL), (False, True), (False, True)))


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
        plan = session.plan(query)
        physical = plan.compiled.physical
        assert physical.executor == "gtea"
        assert [physical.index_name, physical.index_scope] == index_choice
        route = decide_route(physical, grouped=grouped, **flags)

        group_nodes = ("b",) if grouped else ()
        answer, stats = session.evaluate_with_stats(query, group_nodes)
        assert (ungrouped(answer) if grouped else answer) == expected

        # explain() takes no group nodes: it prints the ungrouped route.
        printed = decide_route(physical, **flags)
        explained = session.explain(query)
        notes = [
            line
            for line in explained.splitlines()
            if line.startswith(("[codegen]", "[parallel]"))
        ]
        entry = session.codegen_cache.peek(plan.fingerprint) if printed.compiled else None
        assert notes == printed.notes(entry)
        assert len(notes) == bool(codegen) + (parallel is not None)

        assert (" obs in=" in explained) == (not grouped and not route.compiled)

        assert stats.codegen_hits + stats.codegen_misses == route.compiled
        assert stats.codegen_fallbacks == (route.codegen_fallback is not None)
        assert stats.partial_builds + stats.partial_hits == route.partial
        assert stats.partial_fallbacks == route.partial_refused
        # The per-footprint engine of a partial route is serial.
        assert (stats.parallel_workers > 0) == (route.sharded and not route.partial)


class TestDecideRoute:
    @pytest.fixture(scope="class")
    def physical(self, cases):
        graph, query, _ = cases["full"]
        return compile_query(graph, query).physical

    def test_default_flags_route_to_the_plain_executor(self, physical):
        route = decide_route(physical)
        assert route.index_name == physical.index_name
        assert not (route.partial or route.sharded or route.compiled or route.adaptive)
        assert route.notes() == []

    def test_refusal_reasons_in_precedence_order(self, physical):
        flags = {"adaptive": True, "sharded": True, "grouped": True}
        for flag, fragment in (
            ("adaptive", "adaptive sessions"),
            ("sharded", "parallel-sharded"),
            ("grouped", "group evaluation"),
        ):
            assert fragment in codegen_refusal(physical, **flags)
            del flags[flag]
        assert codegen_refusal(physical) is None

    def test_partial_scope_never_uses_the_inner_index_name(self, cases, low_closure_bound):
        graph, query, _ = cases["partial"]
        physical = compile_query(graph, query).physical
        route = decide_route(physical, codegen="auto", parallel=SERIAL)
        assert route.partial and route.index_name is None
        # The partial engine is serial; a blow-out lands on the sharded one.
        assert route.sharded
        assert route.codegen_fallback == "parallel-sharded execution"
        assert "partial-scope" in codegen_refusal(physical)


class TestRunTimeFallbacks:
    """The two outcomes the route cannot know, and batches."""

    def test_footprint_blow_out_runs_on_the_sharded_engine(self, low_closure_bound):
        graph, query = chain_with_wide_apex(), apex_query()
        with QuerySession(graph, parallel=SERIAL, result_cache_size=0) as session:
            route = decide_route(session.plan(query).compiled.physical, parallel=SERIAL)
            assert route.partial
            answer, stats = session.evaluate_with_stats(query)
            assert answer == evaluate_naive(query, graph)
            assert stats.partial_fallbacks == 1 and stats.parallel_workers == 2

    def test_rejected_compilation_runs_interpreted(self, cases):
        graph, query, expected = cases["full"]
        session = QuerySession(graph, codegen="auto", result_cache_size=0)
        plan = session.plan(query)
        session.codegen_cache.put(plan.fingerprint, "forced rejection")
        answer, stats = session.evaluate_with_stats(query)
        assert answer == expected
        assert stats.codegen_fallbacks == 1
        assert " obs in=" in session.explain(query)
        assert session.explain(query).endswith("[codegen] interpreted fallback (forced rejection)")

    def test_batch_counts_codegen_like_single_queries(self, cases):
        graph, query, expected = cases["full"]
        queries = [query, pair_query("a", "c", edge="pc")]
        batched = QuerySession(graph, codegen="auto", result_cache_size=0)
        batch = batched.evaluate_many(queries)
        assert batch.results[0] == expected
        one_by_one = QuerySession(graph, codegen="auto", result_cache_size=0)
        singles = [one_by_one.evaluate_with_stats(q)[1] for q in queries]
        for counter in ("codegen_hits", "codegen_misses", "codegen_fallbacks"):
            assert getattr(batch.stats, counter) == sum(getattr(s, counter) for s in singles)
        assert batch.stats.codegen_misses == 2
        # A second batch runs the cached functions.
        assert batched.evaluate_many(queries).stats.codegen_hits == 2
