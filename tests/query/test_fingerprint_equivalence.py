"""``query_fingerprint`` hashes exactly the reference canonical text.

The fingerprint writes its canonical JSON directly, from each node's
cached predicate key; :func:`~repro.query.serialize.canonical_query_dict`
stays the reference definition.  Both must produce the same bytes for
every query — the plan and result caches and the warm store are keyed
by this hash — so the corpus below covers the workload templates, the
random-query corpus, the normalize classes and their rewrites, and the
escaping corners of JSON text.
"""

import hashlib
import json

import pytest

from repro.logic import FALSE, Not, Var
from repro.plan import normalize
from repro.query import AttributePredicate, QueryBuilder
from repro.query.serialize import canonical_query_dict, query_fingerprint
from tests.plan.test_normalize_identity import all_cases


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
