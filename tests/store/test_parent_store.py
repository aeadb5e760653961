"""A store written before services shared the graph's snapshot — and
before the partial scope was one descendant closure — still loads."""

import json
import zipfile

from repro.engine import QuerySession
from repro.query import evaluate_naive
from tests.store.parent_store import DIGESTS, STORE_ZIP, build_graph, digest, queries


def test_parent_written_store_rehydrates_with_equal_digests(tmp_path):
    with zipfile.ZipFile(STORE_ZIP) as archive:
        archive.extractall(tmp_path)
    graph = build_graph()
    session = QuerySession(graph, store=tmp_path)
    session.reachability()
    assert session.store_rehydrated["indexes"] == 1
    # The fixture's ``partial-indexes`` artifact holds two per-footprint
    # services of classes that no longer exist: it is skipped (read as
    # damaged, never raised) and that kind alone starts cold.
    assert session.store_rehydrated["partial_indexes"] == 0
    assert (session.store.counters.corrupt, session.store.counters.stale) == (1, 0)
    assert session.cache_info()["partial"]["rows"] == 0

    # The pickled full index carried its own condensation and donated it
    # to the graph: nothing was condensed in this process.
    structure = graph.structure()
    assert graph.structure_info()["builds"] == 0
    (service,) = session._reach_pool.values()
    assert service.condensation is structure.condensation
    assert service.dag is service.index.dag is structure.dag

    answers = [session.evaluate(query) for query in queries()]
    assert [digest(answer) for answer in answers] == json.loads(DIGESTS.read_text())
    assert answers == [evaluate_naive(query, graph) for query in queries()]
    # The stored full index answered: nothing was built in this process.
    assert session.cache_info()["indexes"]["pooled"] == 1
    assert graph.structure_info()["builds"] == 0
