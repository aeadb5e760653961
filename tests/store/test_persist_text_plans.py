"""A session that planned JSON text persists every artifact kind.

``persist()`` skips a kind whose payload does not pickle and leaves it
out of its return value, so a plan holding an unpicklable value — a
parsed formula whose weak-reference slot is pickled as state, say —
would make ``plans`` and ``aliases`` vanish without an error.  Here a
session plans the paper's conjunctive and Boolean queries from their
JSON text; every kind must be persisted and rehydrated in full.
"""

from repro.datasets import TABLE4_PREDICATES, exp1_query, exp2_query, fig7_query, generate_xmark
from repro.engine import QuerySession
from repro.engine.artifacts import ARTIFACT_KINDS
from repro.query import evaluate_naive, query_from_json, query_to_json

TEXTS = (
    [query_to_json(fig7_query(variant)) for variant in ("q1", "q2", "q3")]
    + [query_to_json(exp1_query(name)) for name in ("Q4", "Q6", "Q8")]
    + [query_to_json(exp2_query(name)) for name in sorted(TABLE4_PREDICATES)]
)


def test_every_kind_persists_and_rehydrates_after_text_planning(tmp_path, monkeypatch):
    graph = generate_xmark(scale=0.02, seed=97).graph
    writer = QuerySession(graph, store=tmp_path)
    answers = [writer.evaluate(text) for text in TEXTS]
    persisted = writer.persist()
    assert set(persisted) == {kind.name for kind in ARTIFACT_KINDS}
    assert set(persisted) == {"plans", "aliases", "subtrees", "results"}
    assert all(count > 0 for count in persisted.values()), persisted
    assert persisted["aliases"] == persisted["results"] == len(TEXTS)

    reader = QuerySession(graph, store=tmp_path)
    assert reader.store_rehydrated == persisted
    monkeypatch.setattr("repro.engine.session.query_from_json", None)  # no parse
    assert [reader.lookup(text) for text in TEXTS] == answers
    assert [reader.plan(text).fingerprint for text in TEXTS] == [
        writer.plan(text).fingerprint for text in TEXTS
    ]
    for text, answer in zip(TEXTS, answers):
        assert answer == evaluate_naive(query_from_json(text), graph)
