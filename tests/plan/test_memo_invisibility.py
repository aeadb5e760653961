"""Nothing a query remembers about itself shows from outside.

``GTPQ``, ``AttributePredicate`` and ``LogicalPlan`` derive subtree
records (``fext`` and fingerprints), the pre-order, depths, class
verdicts, satisfiability verdicts, canonical renderings, label pins and
prune obligations when first asked.  That must change no text and no
stored byte:

* ``explain()`` on Fig. 7 q1–q3 and the ten Table 4
  GTPQs equal ``explain_golden.json``, written **at the commit before the
  memos landed** (its ``index:`` lines were rewritten, and nothing else,
  when the closure's byte budget replaced the n² bound).  Regenerate it
  only from a commit whose ``explain`` is the reference::

      PYTHONPATH=<reference checkout>/src:. python tests/plan/test_memo_invisibility.py

* a pickled plan is the same bytes before and after ``explain()`` and an
  execution, and holds no memo;
* a persisted plan explains identically in a fresh session;
* ``copy()`` never hands a memo on.
"""

import json
import pickle
from pathlib import Path

import pytest

from repro.datasets import exp2_query, fig7_query, generate_xmark
from repro.datasets.workloads import TABLE4_PREDICATES
from repro.engine.session import QuerySession
from repro.logic import Var, parse_formula

GOLDEN = Path(__file__).with_name("explain_golden.json")


def cases() -> dict:
    queries = {f"fig7/{variant}": fig7_query(variant) for variant in ("q1", "q2", "q3")}
    queries.update({f"table4/{name}": exp2_query(name) for name in TABLE4_PREDICATES})
    return queries


def make_session(**kwargs) -> QuerySession:
    return QuerySession(generate_xmark(scale=0.02, seed=97).graph, **kwargs)


def render(session: QuerySession) -> dict[str, str]:
    return {f"explain/{name}": session.explain(query) for name, query in cases().items()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_explain_text_matches_the_parent_commit(golden):
    assert len(golden) == 3 + 10
    assert render(make_session()) == golden


def test_explain_is_the_same_text_the_second_time(golden):
    session = make_session()
    assert render(session) == render(session) == golden


def test_pickled_plan_is_the_same_bytes_after_explain_and_execution():
    session = make_session()
    for name, query in cases().items():
        plan = session.plan(query)
        before = pickle.dumps(plan)
        session.explain(query)
        session.evaluate(query)
        session.evaluate_many([query])
        assert "records" in plan.query._facts and plan.compiled.query._facts  # the memos did fill
        assert pickle.dumps(plan) == before, name
        restored = pickle.loads(before)
        for parsed in (restored.query, restored.compiled.query, restored.compiled.original):
            assert parsed._facts == {}
            for node in parsed.nodes.values():
                assert not hasattr(node.predicate, "_sat")
                assert not hasattr(node.predicate, "_canonical")
                assert not hasattr(node.predicate, "_pin")


def test_persisted_plan_explains_identically_in_a_fresh_session(tmp_path, golden):
    first = make_session(store=tmp_path)
    for query in cases().values():
        first.plan(query)
    first.persist()
    fresh = make_session(store=tmp_path)
    assert fresh.cache_info()["store"]["rehydrated"] >= len(cases())
    misses = fresh.plan_cache.counters.misses
    assert render(fresh) == golden
    assert fresh.plan_cache.counters.misses == misses  # explained from the stored plans


def test_copy_never_inherits_a_memo():
    query = exp2_query("DIS_NEG4")
    node = "open_auction"
    assert not query.is_conjunctive() and not query.is_union_conjunctive()
    assert query.depths()[node] == 0 and query.fext(node) is query.fext(node)
    facts = {"conjunctive", "union_conjunctive", "depths", "preorder", "records"}
    assert set(query._facts) == facts

    override = {node: Var("bidder"), "person": Var("education")}
    conjunctive = query.copy(drop=["seller", "item"], structural_override=override)
    assert conjunctive._facts == {}
    assert conjunctive.is_conjunctive() and conjunctive.is_union_conjunctive()
    assert conjunctive.fext(node) == parse_formula("bidder")
    assert "seller" not in conjunctive.depths()
    # ... and the source still answers for itself.
    assert not query.is_conjunctive() and "seller" in query.depths()
    assert query.fext(node) == query.fs(node)


if __name__ == "__main__":
    texts = render(make_session())
    GOLDEN.write_text(json.dumps(texts, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(texts)} texts to {GOLDEN}")
