"""Serialization round trips and canonical fingerprints."""

import hashlib

from repro.datasets import (
    TABLE3_OUTPUTS,
    TABLE4_PREDICATES,
    exp1_query,
    exp2_query,
    fig7_query,
)
from repro.query import (
    AttributePredicate,
    QueryBuilder,
    predicate_key,
    query_fingerprint,
    query_from_dict,
    query_from_json,
    query_to_dict,
    query_to_json,
    subtree_fingerprint,
    subtree_fingerprints,
)


def build_query(sibling_order=("p", "q")):
    builder = (
        QueryBuilder()
        .backbone("r", predicate=AttributePredicate.label("a"))
        .backbone("x", parent="r", predicate=AttributePredicate.label("b"))
    )
    for node_id in sibling_order:
        label = {"p": "c", "q": "d"}[node_id]
        builder.predicate(
            node_id, parent="x", predicate=AttributePredicate.label(label)
        )
    return builder.structural("x", "p & !q").outputs("r", "x").build()


class TestFingerprintStability:
    def test_round_trip_preserves_fingerprint(self):
        query = build_query()
        fingerprint = query_fingerprint(query)
        assert query_fingerprint(query_from_dict(query_to_dict(query))) == fingerprint
        assert query_fingerprint(query_from_json(query_to_json(query))) == fingerprint

    def test_sibling_insertion_order_is_canonicalized(self):
        assert query_fingerprint(build_query(("p", "q"))) == query_fingerprint(
            build_query(("q", "p"))
        )

    def test_default_fs_operand_order_is_canonicalized(self):
        # Without an explicit structural formula the builder derives
        # fs = conjunction of predicate children in insertion order; the
        # fingerprint must not depend on that order.
        def build(order):
            builder = QueryBuilder().backbone(
                "r", predicate=AttributePredicate.label("a")
            )
            for node_id in order:
                label = {"p": "c", "q": "d"}[node_id]
                builder.predicate(
                    node_id, parent="r", predicate=AttributePredicate.label(label)
                )
            return builder.outputs("r").build()

        assert query_fingerprint(build(("p", "q"))) == query_fingerprint(
            build(("q", "p"))
        )

    def test_atom_order_is_canonicalized(self):
        atoms_ab = AttributePredicate([("tag", "=", "a"), ("rank", "<", 3)])
        atoms_ba = AttributePredicate([("rank", "<", 3), ("tag", "=", "a")])
        q1 = QueryBuilder().backbone("r", predicate=atoms_ab).outputs("r").build()
        q2 = QueryBuilder().backbone("r", predicate=atoms_ba).outputs("r").build()
        assert query_fingerprint(q1) == query_fingerprint(q2)
        assert predicate_key(atoms_ab) == predicate_key(atoms_ba)

    def test_output_order_is_significant(self):
        base = build_query()
        swapped = (
            QueryBuilder()
            .backbone("r", predicate=AttributePredicate.label("a"))
            .backbone("x", parent="r", predicate=AttributePredicate.label("b"))
            .predicate("p", parent="x", predicate=AttributePredicate.label("c"))
            .predicate("q", parent="x", predicate=AttributePredicate.label("d"))
            .structural("x", "p & !q")
            .outputs("x", "r")
            .build()
        )
        assert query_fingerprint(base) != query_fingerprint(swapped)

    def test_predicate_content_is_significant(self):
        assert query_fingerprint(build_query()) != query_fingerprint(
            (
                QueryBuilder()
                .backbone("r", predicate=AttributePredicate.label("a"))
                .backbone("x", parent="r", predicate=AttributePredicate.label("e"))
                .predicate("p", parent="x", predicate=AttributePredicate.label("c"))
                .predicate("q", parent="x", predicate=AttributePredicate.label("d"))
                .structural("x", "p & !q")
                .outputs("r", "x")
                .build()
            )
        )

    def test_value_types_are_distinguished(self):
        five_int = AttributePredicate([("rank", "=", 5)])
        five_str = AttributePredicate([("rank", "=", "5")])
        assert predicate_key(five_int) != predicate_key(five_str)


class TestSerializationRoundTrip:
    def test_dict_round_trip_preserves_structure(self):
        query = build_query()
        rebuilt = query_from_dict(query_to_dict(query))
        assert rebuilt.outputs == query.outputs
        assert set(rebuilt.nodes) == set(query.nodes)
        assert rebuilt.parent == query.parent
        assert str(rebuilt.fs("x")) == str(query.fs("x"))


class TestSubtreeFingerprints:
    def test_node_ids_do_not_participate(self):
        renamed = (
            QueryBuilder()
            .backbone("root", predicate=AttributePredicate.label("a"))
            .backbone("body", parent="root", predicate=AttributePredicate.label("b"))
            .predicate("c1", parent="body", predicate=AttributePredicate.label("c"))
            .predicate("c2", parent="body", predicate=AttributePredicate.label("d"))
            .structural("body", "c1 & !c2")
            .outputs("root", "body")
            .build()
        )
        base_fps = subtree_fingerprints(build_query())
        renamed_fps = subtree_fingerprints(renamed)
        assert base_fps["r"] == renamed_fps["root"]
        assert base_fps["x"] == renamed_fps["body"]
        assert base_fps["p"] == renamed_fps["c1"]
        assert base_fps["q"] == renamed_fps["c2"]

    def test_sibling_order_does_not_participate(self):
        first = subtree_fingerprints(build_query(("p", "q")))
        second = subtree_fingerprints(build_query(("q", "p")))
        assert first == second

    def test_edge_type_into_a_child_participates(self):
        def variant(edge):
            return (
                QueryBuilder()
                .backbone("r", predicate=AttributePredicate.label("a"))
                .predicate(
                    "p", parent="r", edge=edge, predicate=AttributePredicate.label("c")
                )
                .outputs("r")
                .build()
            )

        ad = subtree_fingerprints(variant("ad"))
        pc = subtree_fingerprints(variant("pc"))
        assert ad["p"] == pc["p"]  # the leaf itself is identical
        assert ad["r"] != pc["r"]  # but the parent constraint differs

    def test_structural_formula_participates(self):
        conjunctive = build_query()  # fs(x) = p & !q
        disjunctive = (
            QueryBuilder()
            .backbone("r", predicate=AttributePredicate.label("a"))
            .backbone("x", parent="r", predicate=AttributePredicate.label("b"))
            .predicate("p", parent="x", predicate=AttributePredicate.label("c"))
            .predicate("q", parent="x", predicate=AttributePredicate.label("d"))
            .structural("x", "p | !q")
            .outputs("r", "x")
            .build()
        )
        assert (
            subtree_fingerprints(conjunctive)["x"]
            != subtree_fingerprints(disjunctive)["x"]
        )

    def test_cross_query_sharing_of_identical_subtrees(self):
        """The same b[c]-pattern under different roots shares a fingerprint."""
        other = (
            QueryBuilder()
            .backbone("t", predicate=AttributePredicate.label("e"))
            .backbone("u", parent="t", predicate=AttributePredicate.label("b"))
            .predicate("v", parent="u", predicate=AttributePredicate.label("c"))
            .predicate("w", parent="u", predicate=AttributePredicate.label("d"))
            .structural("u", "v & !w")
            .outputs("t")
            .build()
        )
        assert subtree_fingerprint(build_query(), "x") == subtree_fingerprint(
            other, "u"
        )

    def test_convenience_accessor_matches_bulk_map(self):
        query = build_query()
        fps = subtree_fingerprints(query)
        for node_id in query.nodes:
            assert subtree_fingerprint(query, node_id) == fps[node_id]


#: sha256 of ``"<node id> <subtree fingerprint>\n"`` lines, sorted by node
#: id, for the paper's queries at person/item/seller groups 1/2/3.  The
#: fingerprints key the subtree cache and the warm store's ``subtrees``
#: kind, so a change here silently turns every persisted entry cold.
#: Q4-Q8 differ only in their outputs, which no subtree reads.
SUBTREE_FINGERPRINT_GOLDEN = {
    "q1": "7c809f6ae6252a93a41d50ffe08dcaf8613b7320ae6c191796c0244fdbf941fa",
    "q2": "4d040205fa9639440387f2e681755806ecd1ec4b67f9b019ac3aa68460fa6344",
    "q3": "75169c9e4fd83d5639535cb464c02e46dd7d31f60ce4e4e5c6061b6d390fcc67",
    "Q4": "38d81e6944e5e80ed0b40f85ef6b5ed59971b458effcedc98e486290b36bf0cc",
    "Q5": "38d81e6944e5e80ed0b40f85ef6b5ed59971b458effcedc98e486290b36bf0cc",
    "Q6": "38d81e6944e5e80ed0b40f85ef6b5ed59971b458effcedc98e486290b36bf0cc",
    "Q7": "38d81e6944e5e80ed0b40f85ef6b5ed59971b458effcedc98e486290b36bf0cc",
    "Q8": "38d81e6944e5e80ed0b40f85ef6b5ed59971b458effcedc98e486290b36bf0cc",
    "DIS1": "ff2bfb637bc0b438d3a91a9d6950964ad70da19f6bc3c609f5bddd8bd4c1363c",
    "DIS2": "0a1868eee49bba0fbb1d538823cebefbfd86eceabb502125f16d43876a8e3dda",
    "DIS3": "3e88c1e220c44cdf5a3c656aad840d856fd5a6114b8f0b8019c59ab97be16f30",
    "NEG1": "5b3ee1b3b1808d55e24176018644f8c4715ee504747cfd325ef5e7c655854880",
    "NEG2": "0865b4be93e4d4228d189f3c5cff997b79498f9427e8846fbe874b578745da5c",
    "NEG3": "ca0af6eff857f2bc8763be274e74218d67ff39cb5fe2b40530e31919c6b3c4f6",
    "DIS_NEG1": "20d3e25591be17e9df41b516f4f9085d2d817c5a647f4059adc0f19fbc47666f",
    "DIS_NEG2": "f2b8aa63406070b5719d5da9a262280fafdfab7375053f897810b4998816f8a0",
    "DIS_NEG3": "d6e933e366436c37bf477ffdcd279a70e849f736b4e6e76baaec9ad7a84efa0b",
    "DIS_NEG4": "40497f2db203348ba50fa55b9a2c7cb6337e58442f2672b091e7b68002e11482",
}


def test_subtree_fingerprints_of_the_paper_queries_are_pinned():
    groups = {"person_group": 1, "item_group": 2, "seller_group": 3}
    queries = {variant: fig7_query(variant, **groups) for variant in ("q1", "q2", "q3")}
    queries.update({name: exp1_query(name, **groups) for name in TABLE3_OUTPUTS})
    queries.update({name: exp2_query(name, **groups) for name in TABLE4_PREDICATES})
    digests = {}
    for name, query in queries.items():
        pairs = sorted(subtree_fingerprints(query).items())
        lines = "".join(f"{node} {fp}\n" for node, fp in pairs)
        digests[name] = hashlib.sha256(lines.encode("utf-8")).hexdigest()
    assert digests == SUBTREE_FINGERPRINT_GOLDEN
