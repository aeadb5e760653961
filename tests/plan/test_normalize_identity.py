"""Behaviour pin for the compile path: ``normalize()`` is the same program.

The logic kernel (truth tables for small formulas) and the
one-analysis-per-``normalize()`` context make Theorem 1 / Theorem 3 /
Algorithm 1 cheaper; they must not change a single decision.  The
golden file next to this module was written **at the commit before the
kernel landed** and records, for every case below, what ``normalize``
returned there.  Regenerate it only from a commit whose ``normalize``
is the reference::

    PYTHONPATH=<reference checkout>/src:. python tests/plan/test_normalize_identity.py

Cases: every Fig. 7 / Exp-1 / Exp-2 template instance of one
``benchmarks/e2e`` round (seed 12: 200 TPQs + 110 GTPQs), 240 seeded
``random_query_batch`` GTPQs, the constant-FALSE-leaf and unsatisfiable
classes, and the paper's Fig. 2 / Fig. 4 queries.
"""

import gc
import hashlib
import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

from repro.analysis import QueryAnalysis
from repro.datasets import random_labeled_graph, random_query_batch
from repro.logic import FALSE, TRUE, And, Or, Var
from repro.plan import normalize
from repro.query import AttributePredicate, QueryBuilder
from repro.query.serialize import query_fingerprint, query_from_json, query_to_json
from tests.paper_fixtures import fig2_query, fig4_query

GOLDEN = Path(__file__).with_name("normalize_identity_golden.json")
E2E_WORKLOADS = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "workloads.py"
ROUND_SEED = 12


def _round_queries():
    """The distinct template instances ``build_inputs(workload, 12)`` replays
    (same rng, same draw order), without its graph and oracle answers."""
    spec = importlib.util.spec_from_file_location("e2e_workloads", E2E_WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses resolve annotations through here
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    for workload, mix in (("xmark_tpq", workloads._TPQ_MIX), ("xmark_gtpq", workloads._GTPQ_MIX)):
        rng = random.Random(f"{workload}:{ROUND_SEED}")
        for name, lines in workloads._instances(rng, mix, 1.0).items():
            for index, line in enumerate(lines):
                yield f"{workload}/{name}/{index}", query_from_json(line)


def _random_queries():
    for seed in range(60):
        rng = random.Random(seed)
        graph = random_labeled_graph(rng.randint(8, 14), rng)
        batch = random_query_batch(graph, rng, batch_size=4, size_range=(2, 7), overlap=0.6)
        for index, query in enumerate(batch):
            yield f"random/{seed}/{index}", query


def _class_queries():
    contradiction = AttributePredicate([("label", "=", "b"), ("label", "!=", "b")])
    for fs in ("!p", "p & !p", "p | !p", "(p & q) | (p & !q)", "!p & !q", "!(p | q) & p"):
        yield (
            f"class/fs/{fs}",
            QueryBuilder()
            .backbone("r", label="a")
            .predicate("p", parent="r", label="b")
            .predicate("q", parent="r", edge="pc", label="b")
            .structural("r", fs)
            .outputs("r")
            .build(),
        )
    yield (
        "class/unsat-backbone-attribute",
        QueryBuilder()
        .backbone("r", label="a")
        .backbone("x", parent="r", predicate=contradiction)
        .outputs("r", "x")
        .build(),
    )
    yield (
        "class/unsat-predicate-attribute",
        QueryBuilder()
        .backbone("r", label="a")
        .predicate("p", parent="r", predicate=contradiction)
        .predicate("q", parent="r", label="c")
        .structural("r", "p | q")
        .outputs("r")
        .build(),
    )
    # The PR 3 bug class: a PC child entails its AD sibling, so minimization
    # folds fs(n1) to FALSE and only the re-check sees the empty query.
    yield (
        "class/minimization-exposes-unsat",
        QueryBuilder()
        .backbone("n0", label="d")
        .predicate("n1", parent="n0", label="a")
        .predicate("n2", parent="n1", edge="pc", label="c")
        .predicate("n3", parent="n1", edge="ad", label="c")
        .structural("n0", "n1")
        .structural("n1", "n2 & !n3")
        .outputs("n0")
        .build(),
    )
    # Substitution residue the smart constructors never saw.
    residue = And([Var("p"), TRUE, Or([Var("q"), Var("q"), FALSE])])
    yield (
        "class/unsimplified-fs",
        QueryBuilder()
        .backbone("r", label="a")
        .predicate("p", parent="r", label="b")
        .predicate("q", parent="r", label="c")
        .outputs("r")
        .build()
        .copy(structural_override={"r": residue}),
    )
    yield "paper/fig2", fig2_query()
    for variant in ("q1", "q2"):
        for fs_u1 in ("!u2", "u2"):
            yield f"paper/fig4/{variant}/{fs_u1}", fig4_query(variant, fs_u1)


def all_cases():
    yield from _round_queries()
    yield from _random_queries()
    yield from _class_queries()


def snapshot(query, normalized=None) -> dict:
    """What ``normalize`` decided (or ``normalized``, a result for
    ``query`` obtained another way), in JSON-comparable form."""
    if normalized is None:
        normalized = normalize(query)
    rewritten_json = query_to_json(normalized.rewritten)
    return {
        "input": query_fingerprint(query),
        "satisfiable": normalized.satisfiable,
        "rewritten": query_fingerprint(normalized.rewritten),
        "rewritten_json_sha256": hashlib.sha256(rewritten_json.encode("utf-8")).hexdigest(),
        "removed_nodes": list(normalized.removed_nodes),
        "output_mapping": [list(pair) for pair in normalized.output_mapping.items()],
        "simplified_predicates": list(normalized.simplified_predicates),
        "notes": list(normalized.notes),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_normalize_matches_golden(golden):
    seen = set()
    for case_id, query in all_cases():
        seen.add(case_id)
        expected = golden[case_id]
        actual = snapshot(query)
        assert actual["input"] == expected["input"], f"{case_id}: case generator drifted"
        assert actual == expected, case_id
    assert seen == set(golden)


def test_golden_covers_every_regime(golden):
    """The pin is only worth something if the interesting classes occur."""
    assert sum(1 for key in golden if key.startswith("random/")) >= 200
    assert sum(1 for key in golden if key.startswith("xmark_gtpq/")) == 110
    assert sum(1 for key in golden if key.startswith("xmark_tpq/")) == 200
    rows = golden.values()
    assert any(not row["satisfiable"] for row in rows)
    assert any(row["removed_nodes"] for row in rows)
    assert any(row["simplified_predicates"] for row in rows)
    assert any("minimization exposed" in note for row in rows for note in row["notes"])


def test_memo_scope_is_one_normalize_call():
    """Nothing is remembered between calls or keyed by query identity:
    a query normalized twice, and two equal but distinct query objects,
    give equal results, and no analysis object survives the call."""
    def live_analyses():
        gc.collect()
        return {id(obj) for obj in gc.get_objects() if isinstance(obj, QueryAnalysis)}

    first = fig4_query("q1", "u2")
    twin = fig4_query("q1", "u2")
    before = live_analyses()
    assert snapshot(first) == snapshot(first) == snapshot(twin)
    once = normalize(first)
    assert once.removed_nodes  # the case exercises minimization
    assert live_analyses() <= before
    for value in vars(once).values():
        assert not isinstance(value, QueryAnalysis)
    for query in (once.original, once.rewritten):
        assert not any(isinstance(value, QueryAnalysis) for value in vars(query).values())


if __name__ == "__main__":
    rows = {case_id: snapshot(query) for case_id, query in all_cases()}
    GOLDEN.write_text(json.dumps(rows, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(rows)} cases to {GOLDEN}")
