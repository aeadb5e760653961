"""Every artifact kind of the session's table, through the warm store.

One session is driven until every kind of
:data:`repro.engine.artifacts.ARTIFACT_KINDS` holds entries; the tests
then walk the table — never a hand-written kind list — so a kind added
there is covered here without an edit: it must persist, rehydrate into
a fresh session with equal entries, and degrade to "only this kind is
cold" when its file is damaged or holds the wrong type.

Under the closure bound an ``index="auto"`` session runs on the
descendant closure (persisted as ``partial-indexes``) and never pools a
full index, so the ``indexes`` kind gets its entry from one explicit
``reachability("3hop")`` request.
"""

import pickle
import shutil

import pytest

from repro.datasets import index_choice_workload
from repro.engine import QuerySession
from repro.engine.artifacts import ARTIFACT_KINDS
from repro.query import AttributePredicate, QueryBuilder, evaluate_naive
from repro.store import ArtifactStore

KIND_IDS = [kind.name for kind in ARTIFACT_KINDS]

#: what to compare of a stored value whose class defines no equality.
VIEWS = {
    "indexes": lambda service: (service.index.name, service.index.index_size()),
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
    session.evaluate_many(shared, share=True)  # the DAG path fills subtrees
    session.evaluate(queries[-1])  # the isolated path compiles
    assert session.cache_info()["indexes"]["pooled"] == 0  # all of it on the closure
    session.reachability("3hop")  # the one entry of the ``indexes`` kind
    persisted = session.persist()
    return store, session, persisted


def reopen(workload, root, **flags):
    """A fresh session over ``root`` with both rehydration halves run."""
    graph = workload[0]
    session = QuerySession(graph, store=root, codegen="auto", **flags)
    session.reachability()
    return session


def entries(session, kind):
    """The kind's persisted view of a session, values made comparable."""
    payload, _ = kind.dump(session)
    if kind.name == "partial-indexes":  # one closure service, not a keyed payload
        return payload.index.name, payload.index._rows
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
        loaded = session.store_rehydrated[kind.loaded_label]
        assert (loaded == 0) == (kind is cold_kind), (kind.name, loaded)


def assert_answers(session, workload):
    _, queries, _, expected = workload
    for query, answer in zip(queries, expected):
        assert session.evaluate(query) == answer


def test_every_kind_persists_under_its_own_name(populated):
    store, session, persisted = populated
    assert set(persisted) == {kind.saved_label for kind in ARTIFACT_KINDS}
    assert all(count > 0 for count in persisted.values())
    assert store.kinds(session.store_fingerprint) == sorted(KIND_IDS)


@pytest.mark.parametrize("kind", ARTIFACT_KINDS, ids=KIND_IDS)
def test_kind_round_trips(kind, workload, populated):
    store, cold, _ = populated
    warm = reopen(workload, store.root)
    assert warm.store_rehydrated[kind.loaded_label] > 0
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
    assert set(persisted) == {k.saved_label for k in ARTIFACT_KINDS} - {"results"}


def test_index_kinds_load_only_on_reachability_demand(workload, populated):
    graph, queries, _, expected = workload
    session = QuerySession(graph, store=populated[0].root)
    lazy = [kind for kind in ARTIFACT_KINDS if kind.lazy]
    assert lazy
    # A result-cache-served warm restart never unpickles an index.
    for query, answer in zip(queries, expected):
        assert session.evaluate(query) == answer
    assert all(session.store_rehydrated[kind.loaded_label] == 0 for kind in lazy)
    assert session.cache_info()["indexes"]["pooled"] == 0
    session.reachability()
    assert all(session.store_rehydrated[kind.loaded_label] > 0 for kind in lazy)


def test_codegen_kind_is_skipped_with_codegen_off(workload, populated):
    session = QuerySession(workload[0], store=populated[0].root)
    assert session.store_rehydrated["codegen"] == 0
    assert session.cache_info()["codegen"]["size"] == 0


def test_rehydrated_artifacts_are_used(workload, populated):
    graph, queries, shared, _ = workload
    session = reopen(workload, populated[0].root, result_cache_size=0)
    # The rehydrated closure already holds queries[3]'s rows; the
    # compiled function of a plan is a hit.
    filled = session.cache_info()["partial"]["fills"]
    assert filled == session.store_rehydrated["partial_indexes"] > 0
    _, stats = session.evaluate_with_stats(queries[3])
    assert stats.index_lookups > 0
    assert session.cache_info()["partial"]["fills"] == filled
    _, stats = session.evaluate_with_stats(queries[-1])
    assert (stats.codegen_hits, stats.codegen_misses) == (1, 0)
    assert session.cache_info()["indexes"]["pooled"] == 1


def test_invalidate_empties_every_kind_but_the_profile(workload, populated):
    session = reopen(workload, populated[0].root)
    session.invalidate()
    for kind in ARTIFACT_KINDS:
        dumped = kind.dump(session)
        assert (dumped is None) == (kind.info is not None), kind.name


# ----------------------------------------------------------------------
# One condensation per graph version per process
# ----------------------------------------------------------------------
def services_of(session):
    return [*session._reach_pool.values(), session._closure.service]


def assert_one_condensation(session):
    structure = session.graph.structure()
    services = services_of(session)
    assert len(services) == 2
    assert session._closure.service.lineage is structure.lineage
    for service in services:
        assert service.graph is session.graph
        assert service.condensation is structure.condensation
        assert service.dag is service.index.dag is structure.dag


def test_rehydrated_services_adopt_the_graphs_snapshot(workload, populated):
    assert workload[0].structure_info()["version"] == workload[0].version
    assert_one_condensation(reopen(workload, populated[0].root))


def test_rehydrated_service_donates_to_a_graph_without_snapshot(workload, populated):
    graph, _ = index_choice_workload(scale=1, queries=4)  # equal content, no snapshot
    session = QuerySession(graph, store=populated[0].root, result_cache_size=0)
    # The first statistics demand loads the stored indexes instead of
    # condensing the graph next to them.
    session.graph_statistics()
    assert session.store_rehydrated["indexes"] == 1
    assert graph.structure_info()["builds"] == 0
    assert_one_condensation(session)
    for query, answer in zip(workload[1], workload[3]):
        assert session.evaluate(query) == answer
    assert graph.structure_info()["builds"] == 0


def test_partial_payload_pickles_its_condensation_once(populated):
    store, session, _ = populated
    size = store.path(session.store_fingerprint, "partial-indexes").stat().st_size
    service = session._closure.service
    rows = len(pickle.dumps(service.index._rows))
    condensation = len(pickle.dumps(service.condensation))
    assert rows + condensation < size < rows + 1.5 * condensation


@pytest.mark.parametrize("with_snapshot", [True, False], ids=["snapshot", "no-snapshot"])
def test_damaged_condensation_costs_a_rebuild_not_the_snapshot(
    with_snapshot, workload, populated, tmp_path
):
    """An ``indexes`` artifact that still unpickles but describes another
    graph is refused: it neither replaces nor becomes the snapshot."""
    store = copy_of(populated[0], tmp_path)
    fingerprint = populated[1].store_fingerprint
    payload = store.load(fingerprint, "indexes")
    for service in payload.values():
        if with_snapshot:
            service.condensation.scc_of[0] += 1  # same shape, wrong content
        else:
            service.condensation.scc_of.pop()  # wrong shape
    store.save(fingerprint, "indexes", payload)
    store.path(fingerprint, "partial-indexes").unlink()

    graph, _ = index_choice_workload(scale=1, queries=4)
    own = graph.structure() if with_snapshot else None
    session = QuerySession(graph, "3hop", store=store, result_cache_size=0)
    session.reachability()  # the stored 3-hop is refused, a new one built
    assert session.store_rehydrated["indexes"] == 0
    if with_snapshot:
        assert graph.structure() is own
    assert entries(session, ARTIFACT_KINDS[0]) == entries(populated[1], ARTIFACT_KINDS[0])
    for query, answer in zip(workload[1], workload[3]):
        assert session.evaluate(query) == answer


def test_an_auto_session_under_the_bound_persists_no_indexes_kind(workload, tmp_path):
    graph, queries, _, expected = workload
    session = QuerySession(graph, store=tmp_path)
    for query, answer in zip(queries, expected):
        assert session.evaluate(query) == answer
    persisted = session.persist()
    assert "indexes" not in persisted and persisted["partial_indexes"] > 0
    assert "indexes" not in session.store.kinds(session.store_fingerprint)
    # The closure comes back with its rows: a restart fills nothing anew.
    warm = QuerySession(graph, store=tmp_path, result_cache_size=0)
    for query, answer in zip(queries, expected):
        assert warm.evaluate(query) == answer
    row = warm.cache_info()["partial"]
    assert row["rows"] == row["fills"] == persisted["partial_indexes"]
    assert warm.cache_info()["indexes"]["pooled"] == 0
