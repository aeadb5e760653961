"""A store written when reachability indexes, the cost profile and
emitted codegen source were persisted still loads: those files are
ignored — never opened, counted neither corrupt nor stale — and leave
with ``clear()``."""

import json
import zipfile

from repro.engine import QuerySession
from repro.query import evaluate_naive
from tests.store.parent_store import DIGESTS, STORE_ZIP, build_graph, digest, queries

RETIRED = ["codegen", "indexes", "partial-indexes", "profile"]


def test_parent_written_store_rehydrates_with_equal_digests(tmp_path):
    with zipfile.ZipFile(STORE_ZIP) as archive:
        archive.extractall(tmp_path)
    graph = build_graph()
    session = QuerySession(graph, store=tmp_path)
    store, fingerprint = session.store, session.store_fingerprint
    # The fixture holds the two index kinds; profile and codegen are added raw.
    assert store.kinds(fingerprint) == ["indexes", "partial-indexes"]
    store.save(fingerprint, "profile", {"keys": []})
    store.save(fingerprint, "codegen", {"fingerprint": {"source": "", "analysis": None}})
    untouched = {kind: store.path(fingerprint, kind).read_bytes() for kind in RETIRED}

    # Even a codegen session never opens the codegen file.
    session = QuerySession(graph, store=tmp_path, codegen="auto")
    retired_keys = {"indexes", "partial_indexes", "profile_executions", "codegen"}
    assert not retired_keys & set(session.store_rehydrated)
    assert session.cache_info()["codegen"]["size"] == 0
    assert sum(session.store_rehydrated.values()) == 0
    assert store.kinds(fingerprint) == RETIRED

    answers = [session.evaluate(query) for query in queries()]
    assert [digest(answer) for answer in answers] == json.loads(DIGESTS.read_text())
    assert answers == [evaluate_naive(query, graph) for query in queries()]
    # Nothing was donated: the process condensed the graph itself, once.
    assert graph.structure_info()["builds"] == 1
    assert session.cache_info()["partial"]["rows"] > 0

    for used in (session.store, store):
        assert (used.counters.corrupt, used.counters.stale, used.counters.hits) == (0, 0, 0)
    assert {kind: store.path(fingerprint, kind).read_bytes() for kind in RETIRED} == untouched
    assert store.clear() == len(RETIRED)
    assert not (tmp_path / fingerprint).exists()
