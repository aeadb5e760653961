"""Parsing shares predicates and formulas across queries (hash-consing).

``query_from_dict`` takes each attribute predicate and each ``fs``
formula from a process-wide weak table, so their memos serve every
later query.  Sharing must be invisible: a fingerprint embeds each
predicate's canonical text, so two atom lists whose texts differ never
share an object, and every fingerprint is what the same query built
with :class:`QueryBuilder` gets, whatever was parsed before it.
"""

import gc
import json
import math
import random

import pytest

from repro.graph import DataGraph
from repro.logic import FormulaParseError, parse_formula
from repro.logic.formula import TRUE
from repro.logic.parser import shared_formula
from repro.logic.sat import equivalent
from repro.query import (
    AttributePredicate,
    QueryBuilder,
    attribute,
    evaluate_naive,
    query_fingerprint,
    query_from_dict,
    query_from_json,
    query_to_json,
    subtree_fingerprints,
)
from repro.query.attribute import shared_predicate
from repro.query.gtpq import GTPQ, EdgeType, QueryNode, QueryValidationError
from tests.plan.test_normalize_identity import all_cases

#: constants that compare equal in a tuple (or are NaN) but render apart.
LOOKALIKES = [1, True, 1.0, "1", 0, False, 0.0, -0.0, "0", None, "None", math.nan, "nan"]


def atoms_of(constant, attribute="size"):
    return [[attribute, "=", constant]]


class TestKeyRule:
    def test_lookalike_constants_never_share_a_predicate(self):
        predicates = [shared_predicate(atoms_of(constant)) for constant in LOOKALIKES]
        for i, first in enumerate(predicates):
            for second in predicates[i + 1 :]:
                if first.canonical()[1] != second.canonical()[1]:
                    assert first is not second, (first, second)
        texts = {predicate.canonical()[1] for predicate in predicates}
        assert len(texts) == len(LOOKALIKES)

    def test_lookalike_attribute_names_never_share_a_predicate(self):
        names = [1, True, 1.0, "1"]
        predicates = [shared_predicate([[name, "=", "a"]]) for name in names]
        assert len({id(predicate) for predicate in predicates}) == len(names)

    def test_equal_lists_share_one_predicate(self):
        for constant in LOOKALIKES:
            if constant is math.nan:
                continue  # nan != nan: no two NaN lists are equal keys
            first = shared_predicate(atoms_of(constant))
            assert shared_predicate(json.loads(json.dumps(atoms_of(constant)))) is first

    def test_atom_order_and_the_operator_spelling_keep_their_own_atoms(self):
        forward = shared_predicate([["a", "=", "x"], ["b", "<", "y"]])
        backward = shared_predicate([["b", "<", "y"], ["a", "=", "x"]])
        assert forward.atoms == (("a", "=", "x"), ("b", "<", "y"))
        assert backward.atoms == (("b", "<", "y"), ("a", "=", "x"))
        assert forward.canonical() == backward.canonical()
        assert shared_predicate([["a", "==", "x"]]).atoms == (("a", "=", "x"),)

    def test_a_mutable_constant_is_not_shared(self):
        first = shared_predicate(atoms_of(["a", "list"]))
        second = shared_predicate(atoms_of(["a", "list"]))
        assert first is not second
        assert first.atoms == second.atoms

    def test_a_malformed_list_raises_and_leaves_no_entry(self):
        with pytest.raises(ValueError):
            shared_predicate([["a", "~", "x"]])
        with pytest.raises(ValueError):
            shared_predicate([["a", "="]])
        assert (("a", "~", "x"),) not in attribute._SHARED
        assert (("a", "="),) not in attribute._SHARED

    def test_lookalike_queries_fingerprint_apart(self):
        def text(constant):
            return json.dumps(
                {
                    "nodes": [
                        {"id": "r", "atoms": [["label", "=", "a"]]},
                        {"id": "x", "parent": "r", "atoms": atoms_of(constant)},
                    ],
                    "outputs": ["r", "x"],
                }
            )

        keep = [query_from_json(text(constant)) for constant in LOOKALIKES]
        fingerprints = [query_fingerprint(query) for query in keep]
        assert len(set(fingerprints)) == len(LOOKALIKES)
        for constant, fingerprint in zip(LOOKALIKES, fingerprints):
            built = (
                QueryBuilder()
                .backbone("r", label="a")
                .backbone("x", parent="r", predicate=AttributePredicate(atoms_of(constant)))
                .outputs("r", "x")
                .build()
            )
            assert query_fingerprint(built) == fingerprint, constant

    def test_a_formula_text_parses_once_while_it_lives(self):
        first = shared_formula("!u6 | (u7 & u8)")
        assert shared_formula("!u6 | (u7 & u8)") is first
        assert first == parse_formula("!u6 | (u7 & u8)")
        assert shared_formula("u7 & u8 | !u6") is not first
        with pytest.raises(FormulaParseError):
            shared_formula("u6 |")


def corpus():
    """``(name, JSON text)`` of the normalize corpus, its rewrites excluded."""
    return [(name, query_to_json(query)) for name, query in all_cases()]


def fingerprints(query):
    return query_fingerprint(query), subtree_fingerprints(query)


class TestFingerprintsDoNotDependOnHistory:
    def test_parsed_queries_fingerprint_like_built_ones(self):
        texts = corpus()
        assert len(texts) > 500
        for name, text in texts:
            data = json.loads(text)
            assert outcome(query_from_dict, data) == outcome(via_builder, data), name

    def test_forward_and_reversed_parses_agree(self):
        texts = [text for _, text in corpus()]
        forward = [query_from_json(text) for text in texts]
        expected = [fingerprints(query) for query in forward]

        def reversed_pass():
            queries = [query_from_json(text) for text in reversed(texts)]
            return [fingerprints(query) for query in reversed(queries)]

        assert reversed_pass() == expected  # every shared value alive
        del forward
        gc.collect()
        assert reversed_pass() == expected  # from empty tables

    def test_parsed_queries_share_their_values(self):
        texts = [text for _, text in corpus()]
        queries = [query_from_json(text) for text in texts]
        predicates = {id(node.predicate) for query in queries for node in query.nodes.values()}
        atom_lists = {
            node.predicate.canonical()[1] for query in queries for node in query.nodes.values()
        }
        # Lists equal up to order or "==" spelling may keep two objects;
        # no list is built once per node.
        assert len(predicates) < 2 * len(atom_lists)
        assert len(predicates) < sum(len(query.nodes) for query in queries) // 2


class TestRoundTrip:
    def test_a_round_trip_keeps_every_fs(self):
        for name, query in all_cases():
            back = query_from_json(query_to_json(query))
            assert back.structural.keys() == query.structural.keys(), name
            for node_id, fs in query.structural.items():
                assert equivalent(back.fs(node_id), fs), (name, node_id)
            # Only an unsimplified fs comes back in another form.
            same = query_fingerprint(back) == query_fingerprint(query)
            assert same == (name != "class/unsimplified-fs"), name

    def test_a_tautology_fs_answers_alike_after_the_round_trip(self):
        # Root ``r`` (label ``a``) over predicate children ``p`` and ``q``
        # with ``fs = p | !p``, which the builder folds to TRUE: its text
        # must carry that ``fs``, or the parser would conjoin ``p & q``.
        query = dict(all_cases())["class/fs/p | !p"]
        graph = DataGraph()
        graph.add_node(label="a")
        back = query_from_json(query_to_json(query))
        assert back.fs("r") == query.fs("r") == TRUE
        assert evaluate_naive(back, graph) == evaluate_naive(query, graph) == {(0,)}


def via_builder(data):
    """:func:`query_from_dict` as it was, through :class:`QueryBuilder`:
    the reference for what the direct construction accepts and raises."""
    builder = QueryBuilder()
    deferred = []
    for entry in data["nodes"]:
        predicate = AttributePredicate(tuple(atom) for atom in entry.get("atoms", []))
        kwargs = {"predicate": predicate}
        if "parent" in entry:
            kwargs["parent"] = entry["parent"]
            kwargs["edge"] = entry.get("edge", "ad")
        if entry.get("kind", "backbone") == "backbone":
            builder.backbone(entry["id"], **kwargs)
        else:
            builder.predicate(entry["id"], **kwargs)
        if "fs" in entry:
            deferred.append((entry["id"], entry["fs"]))
    for node_id, text in deferred:
        builder.structural(node_id, parse_formula(text))
    builder.outputs(*data["outputs"])
    return builder.build()


def node(node_id, parent=None, kind="backbone", **extra):
    entry = {"id": node_id, "kind": kind, "atoms": [["label", "=", node_id]], **extra}
    if parent is not None:
        entry["parent"] = parent
    return entry


MALFORMED = {
    "duplicate-id": {"nodes": [node("r"), node("r")], "outputs": ["r"]},
    "predicate-root": {"nodes": [node("r", kind="predicate")], "outputs": ["r"]},
    "second-root": {"nodes": [node("r"), node("s")], "outputs": ["r"]},
    "parent-not-yet-added": {"nodes": [node("r"), node("x", "y"), node("y", "r")], "outputs": []},
    "own-parent": {"nodes": [node("r"), node("x", "x")], "outputs": ["r"]},
    "own-parent-first": {"nodes": [node("x", "x")], "outputs": ["x"]},
    "no-nodes": {"nodes": [], "outputs": []},
    "unknown-edge": {"nodes": [node("r"), node("x", "r", edge="sideways")], "outputs": ["r"]},
    "unknown-operator": {"nodes": [{"id": "r", "atoms": [["a", "~", 1]]}], "outputs": ["r"]},
    "no-outputs-key": {"nodes": [node("r")]},
    "no-id": {"nodes": [{"atoms": []}], "outputs": []},
    "fs-over-backbone": {
        "nodes": [node("r", fs="x"), node("x", "r")],
        "outputs": ["r"],
    },
    "fs-parse-error": {
        "nodes": [node("r", fs="p &"), node("p", "r", kind="predicate")],
        "outputs": ["r"],
    },
    "predicate-output": {
        "nodes": [node("r"), node("p", "r", kind="predicate")],
        "outputs": ["p"],
    },
    "backbone-under-predicate": {
        "nodes": [node("r"), node("p", "r", kind="predicate"), node("x", "p")],
        "outputs": ["r"],
    },
    "unknown-output": {"nodes": [node("r")], "outputs": ["nowhere"]},
}

WELL_FORMED = {
    "defaults": {
        "nodes": [
            {"id": "r"},
            {"id": "x", "parent": "r", "edge": "pc"},
            {"id": "p", "parent": "x", "kind": "predicate", "atoms": [["k", ">", 2]]},
            {"id": "q", "parent": "x", "kind": "filter"},
            {"id": "y", "parent": "r", "atoms": [["label", "==", "y"]]},
        ],
        "outputs": [],
    },
    "explicit-fs": {
        "nodes": [
            node("r", fs="!p | q"),
            node("p", "r", kind="predicate"),
            node("q", "r", kind="predicate", fs="0"),
            node("s", "q", kind="predicate"),
            node("x", "r", edge="/"),
        ],
        "outputs": ["x", "r"],
    },
    "null-parent-is-a-root": {"nodes": [{"id": "r", "parent": None}], "outputs": ["r"]},
}


def outcome(parse, data):
    try:
        query = parse(data)
    except Exception as error:  # the type and message are the outcome
        return type(error), str(error)
    return fingerprints(query), query_to_json(query), list(query.nodes), query.children


class TestDirectConstruction:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_input_raises_what_the_builder_raised(self, name):
        expected = outcome(via_builder, MALFORMED[name])
        assert isinstance(expected[0], type), "the case must be malformed"
        assert outcome(query_from_dict, MALFORMED[name]) == expected

    @pytest.mark.parametrize("name", sorted(WELL_FORMED))
    def test_defaults_match_the_builder(self, name):
        expected = outcome(via_builder, WELL_FORMED[name])
        assert not isinstance(expected[0], type), expected
        assert outcome(query_from_dict, WELL_FORMED[name]) == expected


def reference_tree_error(root, nodes, parent, children):
    """The tree checks of ``GTPQ.validate`` as one parent walk per node."""
    for node_id in nodes:
        if node_id != root and node_id not in parent:
            return f"node {node_id!r} is disconnected"
    for node_id in nodes:
        seen = {node_id}
        current = node_id
        while current != root:
            current = parent.get(current)
            if current is None or current not in nodes:
                return f"node {node_id!r} is not connected to the root"
            if current in seen:
                return "query edges form a cycle"
            seen.add(current)
    for node_id, child_ids in children.items():
        for child_id in child_ids:
            if parent.get(child_id) != node_id:
                return f"child list of {node_id!r} disagrees with parent map"
    return None


def test_validate_reports_what_a_walk_per_node_reports():
    rng = random.Random(43)
    outcomes = set()
    for _ in range(3000):
        size = rng.randint(1, 7)
        ids = [f"n{i}" for i in range(size)]
        nodes = {node_id: QueryNode(node_id, AttributePredicate(), True) for node_id in ids}
        root = ids[0]
        parent = {}
        for node_id in ids[1:]:
            roll = rng.random()
            if roll < 0.8:
                parent[node_id] = rng.choice(ids)
            elif roll < 0.9:
                parent[node_id] = rng.choice(["elsewhere", None])
        children = {node_id: [] for node_id in ids}
        for node_id, parent_id in parent.items():
            if parent_id in children and rng.random() < 0.95:
                children[parent_id].append(node_id)
        if rng.random() < 0.1:
            children[rng.choice(ids)].append(rng.choice(ids))
        expected = reference_tree_error(root, nodes, parent, children)
        try:
            GTPQ(
                root=root,
                nodes=nodes,
                parent=parent,
                children=children,
                edge_types={node_id: EdgeType.DESCENDANT for node_id in parent},
                structural={},
                outputs=[root],
            )
            got = None
        except QueryValidationError as error:
            got = str(error)
        assert got == expected, (parent, children)
        outcomes.add(expected.split(" ")[-1] if expected else None)
    assert len(outcomes) == 5  # every tree message, and success, was met
