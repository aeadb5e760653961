"""A store written before services shared the graph's snapshot still loads."""

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
    assert session.store_rehydrated["partial_indexes"] == 2
    assert session.store.counters.corrupt == session.store.counters.stale == 0

    # Each pickled service carried its own condensation; in this process
    # they all read the one the first of them donated to the graph.
    structure = graph.structure()
    assert graph.structure_info()["builds"] == 0
    services = [*session._reach_pool.values(), *dict(session.partial_pool.items()).values()]
    assert len(services) == 3
    for service in services:
        assert service.condensation is structure.condensation
        assert service.dag is service.index.dag is structure.dag

    answers = [session.evaluate(query) for query in queries()]
    assert [digest(answer) for answer in answers] == json.loads(DIGESTS.read_text())
    assert answers == [evaluate_naive(query, graph) for query in queries()]
    # The stored full index answered: nothing was built in this process.
    assert session.cache_info()["indexes"]["pooled"] == 1
    assert graph.structure_info()["builds"] == 0

    # A rehydrated partial service still answers inside its footprint.
    partial = next(s for s in services if hasattr(s, "footprint"))
    inside = sorted(partial.footprint.nodes)[:40]
    full = session.reachability()
    for source in inside:
        for target in inside:
            assert partial.reaches(source, target) == full.reaches(source, target)
