"""Every artifact kind of the session's table, through the warm store.

One session is driven until every kind of
:data:`repro.engine.artifacts.ARTIFACT_KINDS` holds entries; the tests
then walk the table — never a hand-written kind list — so a kind added
there is covered here without an edit: it must persist, rehydrate into
a fresh session with equal entries, and degrade to "only this kind is
cold" when its file is damaged or holds the wrong type.

The table lists what is persisted and nothing else: reachability state —
the pooled indexes and the one descendant closure — lives in memory
only, so a warm restart condenses the graph once per process and fills
closure rows as misses read them, exactly like a cold session.  So do
the compiled functions of a ``codegen=`` session: a restarted one
compiles each plan again on its first run.
"""

import shutil

import pytest

from repro.datasets import fig7_query, generate_xmark, index_choice_workload
from repro.engine import QuerySession
from repro.engine.artifacts import ARTIFACT_KINDS
from repro.query import AttributePredicate, QueryBuilder, evaluate_naive
from repro.store import ArtifactStore

KIND_IDS = [kind.name for kind in ARTIFACT_KINDS]

#: what to compare of a stored value whose class defines no equality.
VIEWS = {
    "plans": lambda plan: (plan.fingerprint, plan.predicate_keys, plan.compiled.explain()),
}


def bulk_query(head, tail, *outputs):
    """A query over the bulk labels: many candidates, many closure rows."""
    return (
        QueryBuilder()
        .backbone("a", predicate=AttributePredicate.label(head))
        .backbone("b", parent="a", predicate=AttributePredicate.label(tail))
        .outputs(*outputs)
        .build()
    )


@pytest.fixture(scope="module")
def workload():
    graph, enclave = index_choice_workload(scale=1, queries=4)
    shared = [bulk_query("a", "b", "a"), bulk_query("a", "b", "b")]
    queries = [*enclave, *shared, bulk_query("b", "c", "a")]
    return graph, queries, shared, [evaluate_naive(query, graph) for query in queries]


@pytest.fixture(scope="module")
def populated(workload, tmp_path_factory):
    """A store holding every kind, and the session that wrote it."""
    graph, queries, shared, _ = workload
    store = ArtifactStore(tmp_path_factory.mktemp("warm"))
    session = QuerySession(graph, store=store, codegen="auto")
    for query in queries[: -len(shared) - 1]:
        session.evaluate(query)
    session.evaluate_many(shared)
    for query in shared:  # group evaluation runs interpreted: it fills subtrees
        session.evaluate(query, group_nodes=query.outputs)
    session.evaluate(queries[-1])
    assert session.cache_info()["indexes"]["pooled"] == 0  # all of it on the closure
    session.reachability("3hop")  # pooled, like the closure's rows: never persisted
    persisted = session.persist()
    return store, session, persisted


def reopen(workload, root, **flags):
    """A fresh session over ``root``."""
    return QuerySession(workload[0], store=root, codegen="auto", **flags)


def entries(session, kind):
    """The kind's persisted view of a session, values made comparable."""
    payload, _ = kind.dump(session)
    view = VIEWS.get(kind.name)
    if view is None:
        return payload
    return [(key, view(value)) for key, value in dict(payload).items()]


def copy_of(store, tmp_path):
    root = tmp_path / "copy"
    shutil.copytree(store.root, root)
    return ArtifactStore(root)


def assert_only_cold(session, cold_kind):
    for kind in ARTIFACT_KINDS:
        loaded = session.store_rehydrated[kind.name]
        assert (loaded == 0) == (kind is cold_kind), (kind.name, loaded)


def assert_answers(session, workload):
    _, queries, _, expected = workload
    for query, answer in zip(queries, expected):
        assert session.evaluate(query) == answer


def test_the_table_is_the_four_persisted_kinds():
    assert KIND_IDS == ["plans", "candidates", "subtrees", "results"]


def test_every_kind_persists_under_its_own_name(populated):
    store, session, persisted = populated
    assert set(persisted) == set(KIND_IDS)
    assert all(count > 0 for count in persisted.values())
    assert store.kinds(session.store_fingerprint) == sorted(KIND_IDS)


@pytest.mark.parametrize("kind", ARTIFACT_KINDS, ids=KIND_IDS)
def test_kind_round_trips(kind, workload, populated):
    store, cold, _ = populated
    warm = reopen(workload, store.root)
    assert warm.store_rehydrated[kind.name] > 0
    assert entries(warm, kind) == entries(cold, kind)


@pytest.mark.parametrize("kind", ARTIFACT_KINDS, ids=KIND_IDS)
def test_damaged_kind_is_the_only_cold_one(kind, workload, populated, tmp_path):
    store = copy_of(populated[0], tmp_path)
    target = store.path(populated[1].store_fingerprint, kind.name)
    blob = bytearray(target.read_bytes())
    blob[-3] ^= 0xFF
    target.write_bytes(bytes(blob))
    session = reopen(workload, store)
    assert store.counters.corrupt == 1
    assert_only_cold(session, kind)
    assert_answers(session, workload)


@pytest.mark.parametrize("kind", ARTIFACT_KINDS, ids=KIND_IDS)
def test_mistyped_kind_is_the_only_cold_one(kind, workload, populated, tmp_path):
    store = copy_of(populated[0], tmp_path)
    store.save(populated[1].store_fingerprint, kind.name, [("not", "this"), "kind's", 5])
    session = reopen(workload, store)
    assert_only_cold(session, kind)
    assert_answers(session, workload)


def test_unpicklable_entry_skips_only_its_kind(workload, populated, tmp_path):
    session = reopen(workload, copy_of(populated[0], tmp_path))
    session.result_cache.put("poison", lambda: None)
    persisted = session.persist()
    assert "results" not in persisted
    assert set(persisted) == set(KIND_IDS) - {"results"}


def test_codegen_functions_stay_in_memory(workload, populated):
    """A ``codegen="auto"`` session persists the four kinds; a fresh one
    over that store compiles its first plan again."""
    store, writer, persisted = populated
    assert writer.cache_info()["codegen"]["size"] > 0
    assert sorted(persisted) == sorted(KIND_IDS)
    assert store.kinds(writer.store_fingerprint) == sorted(KIND_IDS)
    session = reopen(workload, store.root, result_cache_size=0)
    assert "codegen" not in session.store_rehydrated
    assert session.cache_info()["codegen"]["size"] == 0
    _, stats = session.evaluate_with_stats(workload[1][-1])
    assert stats.codegen_misses == 1
    assert session.cache_info()["codegen"]["size"] == 1


def test_rehydrated_artifacts_are_used(workload, populated):
    graph, queries, shared, _ = workload
    session = reopen(workload, populated[0].root, result_cache_size=0)
    # The plan is a hit; the compiled function and the closure are not
    # stored and build under the execution that needs them.
    assert session.cache_info()["partial"]["rows"] == 0
    _, stats = session.evaluate_with_stats(queries[-1])
    assert (stats.plan_cache_hits, stats.plan_cache_misses) == (1, 0)
    assert (stats.codegen_hits, stats.codegen_misses) == (0, 1)
    assert session.cache_info()["partial"]["rows"] > 0
    assert session.cache_info()["indexes"]["pooled"] == 0


def test_invalidate_empties_every_kind(workload, populated):
    session = reopen(workload, populated[0].root)
    session.evaluate_with_stats(workload[1][3])
    session.reachability("3hop")
    session.invalidate()
    assert all(kind.dump(session) is None for kind in ARTIFACT_KINDS)
    info = session.cache_info()
    assert (info["indexes"]["pooled"], info["partial"]["rows"]) == (0, 0)


def test_no_session_persists_an_index_kind(workload, populated):
    """Neither the pooled 3-hop nor the closure's rows reach the store."""
    store, session, persisted = populated
    info = session.cache_info()
    assert info["indexes"]["pooled"] == 1 and info["partial"]["rows"] > 0
    assert not {"indexes", "partial_indexes", "partial-indexes", "profile"} & set(persisted)
    assert store.kinds(session.store_fingerprint) == sorted(KIND_IDS)


def test_single_query_traffic_seeds_subtree_reuse_after_a_restart(tmp_path):
    """Plain ``evaluate`` calls fill the subtrees kind; a fresh session
    over that store prunes a new query's shared subtrees zero times."""
    graph = generate_xmark(scale=0.02, seed=7).graph
    writer = QuerySession(graph, store=tmp_path)
    for group in range(3):
        writer.evaluate(fig7_query("q1", person_group=group))
    assert writer.persist()["subtrees"] > 0

    session = QuerySession(generate_xmark(scale=0.02, seed=7).graph, store=tmp_path)
    assert session.store_rehydrated["subtrees"] > 0
    fresh = fig7_query("q2", person_group=1, item_group=4)  # q1's bidder branch, and more
    answer, stats = session.evaluate_with_stats(fresh)
    assert stats.result_cache_misses == 1
    assert stats.subtree_cache_hits > 0 and stats.subtree_cache_misses > 0
    assert answer == evaluate_naive(fresh, session.graph)


def test_restart_condenses_once_and_fills_rows_as_misses_read_them(tmp_path):
    queries = [fig7_query("q1", person_group=group) for group in range(4)]
    writer = QuerySession(generate_xmark(scale=0.02, seed=7).graph, store=tmp_path)
    for query in queries[:3]:
        writer.evaluate(query)
    writer.persist()
    caches = ("plan", "candidate", "subtree", "result")
    sizes = sum(writer.cache_info()[row]["size"] for row in caches)

    graph = generate_xmark(scale=0.02, seed=7).graph  # equal content, no snapshot yet
    fresh = queries[3]  # not in the stored result cache
    expected = evaluate_naive(fresh, graph)
    builds = graph.structure_info()["builds"]
    for _ in range(2):
        session = QuerySession(graph, store=tmp_path)
        info = session.cache_info()
        assert info["store"]["rehydrated"] == sizes > 0
        assert info["partial"]["rows"] == 0
        answer, stats = session.evaluate_with_stats(fresh)
        assert answer == expected and stats.result_cache_misses == 1
        assert session.cache_info()["partial"]["rows"] > 0
    assert graph.structure_info()["builds"] - builds == 1
