"""``query_fingerprint`` hashes exactly the reference canonical text.

The fingerprint writes its canonical JSON directly, from each node's
subtree record; :func:`~repro.query.serialize.canonical_query_dict`
stays the reference definition.  Both must produce the same bytes for
every query — the plan and result caches and the warm store are keyed
by this hash — so the corpus below covers the workload templates, the
random-query corpus, the normalize classes and their rewrites, and the
escaping corners of JSON text.

A parsed query takes its records from the process-wide tables, so its
keys — ``query_fingerprint``, ``subtree_fingerprints``, ``fext`` and
``normalize_key`` — must be those of the query ``QueryBuilder`` builds,
whatever was parsed before it: cold or warm, in either order, and with
its siblings permuted.
"""

import gc
import hashlib
import json
import random

import pytest

from repro.datasets import (
    TABLE3_OUTPUTS,
    TABLE4_PREDICATES,
    exp1_query,
    exp2_query,
    fig7_query,
)
from repro.logic import FALSE, Not, Var
from repro.plan import normalize, normalize_key
from repro.query import AttributePredicate, QueryBuilder
from repro.query.serialize import (
    canonical_query_dict,
    query_fingerprint,
    query_from_dict,
    query_to_dict,
    subtree_fingerprints,
)
from tests.plan.test_normalize_identity import all_cases
from tests.query.test_shared_values import via_builder


def reference(query):
    text = json.dumps(canonical_query_dict(query), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_corpus_and_rewrites_fingerprint_like_the_reference():
    checked = 0
    for name, query in all_cases():
        assert query_fingerprint(query) == reference(query), name
        rewritten = normalize(query).rewritten
        assert query_fingerprint(rewritten) == reference(rewritten), f"{name} (rewritten)"
        checked += 2
    assert checked > 1000


def corner_cases():
    yield "non-ascii", (
        QueryBuilder()
        .backbone("größe", label="straße")
        .backbone("名前", parent="größe", edge="pc", label="名前")
        .predicate("émoji🙂", parent="größe", label="ü")
        .structural("größe", Not(Var("émoji🙂")))
        .outputs("größe", "名前")
        .build()
    )
    yield "quotes-and-backslashes", (
        QueryBuilder()
        .backbone('r"1', label='a"b')
        .backbone("x\\y", parent='r"1', label="c\\d")
        .backbone("tab\tnew\nline", parent="x\\y", label="\x00\x1f")
        .outputs('r"1', "tab\tnew\nline")
        .build()
    )
    for constant in (5, "5", 5.0, True, None):
        yield f"constant-{constant!r}", (
            QueryBuilder()
            .backbone("r", label="a")
            .backbone("x", parent="r", predicate=AttributePredicate([("size", "=", constant)]))
            .outputs("r", "x")
            .build()
        )
    yield "constant-false-fs", (
        QueryBuilder()
        .backbone("r", label="a")
        .predicate("p", parent="r", label="b")
        .outputs("r")
        .build()
        .copy(structural_override={"r": FALSE})
    )
    yield "non-string-ids", (
        QueryBuilder().backbone(1, label="a").backbone(2, parent=1, label="b").outputs(1, 2).build()
    )


@pytest.mark.parametrize("name, query", list(corner_cases()), ids=lambda value: str(value)[:24])
def test_escaping_corners_fingerprint_like_the_reference(name, query):
    assert query_fingerprint(query) == reference(query)


def test_five_and_the_string_five_stay_apart():
    fingerprints = {name: query_fingerprint(query) for name, query in corner_cases()}
    assert fingerprints["constant-5"] != fingerprints["constant-'5'"]
    assert len({fingerprints[f"constant-{value!r}"] for value in (5, "5", 5.0, True, None)}) == 5


# ----------------------------------------------------------------------
# Parsing through the interned entry and subtree records
# ----------------------------------------------------------------------
def dataset_cases():
    """``(name, query)``: Fig. 7, Exp-1 and Exp-2 instances, then the
    normalize corpus."""
    for variant in ("q1", "q2", "q3"):
        for group in range(3):
            groups = {"person_group": group, "item_group": group, "seller_group": (group + 1) % 3}
            yield f"fig7/{variant}/{group}", fig7_query(variant, **groups)
    for group in range(2):
        groups = {"person_group": group, "seller_group": group + 1}
        for name in TABLE3_OUTPUTS:
            yield f"exp1/{name}/{group}", exp1_query(name, **groups)
        for name in TABLE4_PREDICATES:
            yield f"exp2/{name}/{group}", exp2_query(name, **groups)
    yield from all_cases()


def keys(query):
    """Everything a miss keys or reads off the records."""
    return (
        query_fingerprint(query),
        subtree_fingerprints(query),
        {node_id: query.fext(node_id) for node_id in query.nodes},
        normalize_key(query),
    )


def permuted(data, rng):
    """``data`` with every sibling list shuffled, entries in the pre-order
    of the shuffled tree (each parent still before its children)."""
    entries = {entry["id"]: entry for entry in data["nodes"]}
    children = {node_id: [] for node_id in entries}
    roots = []
    for entry in data["nodes"]:
        parent = entry.get("parent")
        (roots if parent is None else children[parent]).append(entry["id"])
    order, stack = [], list(roots)
    while stack:
        node_id = stack.pop()
        order.append(entries[node_id])
        below = list(children[node_id])
        rng.shuffle(below)
        stack.extend(reversed(below))
    return {"nodes": order, "outputs": list(data["outputs"])}


@pytest.fixture(scope="module")
def datas():
    cases = list(dataset_cases())
    assert len(cases) > 500
    return [(name, query_to_dict(query)) for name, query in cases]


def test_parsed_keys_equal_built_keys_cold_and_warm_both_ways(datas):
    expected = [keys(via_builder(data)) for _, data in datas]
    for order in (range(len(datas)), range(len(datas) - 1, -1, -1)):
        gc.collect()  # cold: no query of the last pass is alive
        cold = {position: query_from_dict(datas[position][1]) for position in order}
        warm = {position: query_from_dict(datas[position][1]) for position in order}
        for position in order:
            name = datas[position][0]
            assert keys(cold[position]) == expected[position], name
            assert keys(warm[position]) == expected[position], name
            # The warm parse shares every record of the live cold one.
            assert warm[position].records() == cold[position].records(), name
        del cold, warm


def test_sibling_permuted_json_keys_like_the_query_builder(datas):
    rng = random.Random(46)
    for name, data in datas:
        query = query_from_dict(data)
        for _ in range(2):
            shuffled = permuted(data, rng)
            again = query_from_dict(shuffled)
            assert keys(again) == keys(via_builder(shuffled)), name
            assert query_fingerprint(again) == query_fingerprint(query), name
            assert subtree_fingerprints(again) == subtree_fingerprints(query), name
