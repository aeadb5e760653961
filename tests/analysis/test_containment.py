"""Tests for containment/equivalence (Theorem 3, Example 5)."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.analysis import (
    are_equivalent,
    find_homomorphism,
    is_contained,
)
from repro.query import QueryBuilder, evaluate_naive
from tests.paper_fixtures import fig4_q3, fig4_query
from tests.reachability.test_indexes import random_dags


def _q(variant):
    """Fig. 4 queries with fs(u1) = u2, as in Example 5."""
    return fig4_query(variant, fs_u1="u2")


class TestExample5:
    def test_q2_contained_in_q3(self):
        assert is_contained(_q("q2"), fig4_q3())

    def test_q2_contained_in_q1(self):
        assert is_contained(_q("q2"), _q("q1"))

    def test_q1_equivalent_to_q3(self):
        assert are_equivalent(_q("q1"), fig4_q3())

    def test_homomorphism_q3_to_q2_maps_as_printed(self):
        # λ3,2: u1->u1, u3(Q3's B2 node: u6)->..., Example 5 prints the
        # mapping in the paper's node numbering; here we check a valid
        # homomorphism exists and pins the output.
        mapping = find_homomorphism(fig4_q3(), _q("q2"))
        assert mapping is not None
        assert mapping["u1"] == "u1"
        assert mapping["u3"] == "u3"  # output is pinned positionally
        assert mapping["u6"] == "u6"
        assert mapping["u7"] == "u7"

    def test_homomorphism_q1_to_q3_drops_non_independent(self):
        mapping = find_homomorphism(_q("q1"), fig4_q3())
        assert mapping is not None
        assert "u5" not in mapping  # non-independent -> ⊥
        assert "u8" not in mapping

    def test_q3_not_contained_in_q2(self):
        # Q2 additionally requires the B1/E1 branch as a PC child: strictly
        # tighter, so Q3 ⊑ Q2 must fail.
        assert not is_contained(fig4_q3(), _q("q2"))


class TestBasicContainment:
    def test_self_containment(self):
        query = _q("q1")
        assert is_contained(query, query)
        assert are_equivalent(query, query)

    def test_extra_predicate_tightens(self):
        loose = QueryBuilder().backbone("a", label="x").outputs("a").build()
        tight = (
            QueryBuilder()
            .backbone("a", label="x")
            .predicate("p", parent="a", label="y")
            .outputs("a")
            .build()
        )
        assert is_contained(tight, loose)
        assert not is_contained(loose, tight)

    def test_attribute_generalization(self):
        year_tight = QueryBuilder().backbone("a", predicate=None, label=None).outputs("a").build()
        from repro.query import AttributePredicate

        q_2005 = (
            QueryBuilder()
            .backbone("a", predicate=AttributePredicate([("year", ">=", 2005)]))
            .outputs("a")
            .build()
        )
        q_2000 = (
            QueryBuilder()
            .backbone("a", predicate=AttributePredicate([("year", ">=", 2000)]))
            .outputs("a")
            .build()
        )
        assert is_contained(q_2005, q_2000)
        assert not is_contained(q_2000, q_2005)
        assert is_contained(q_2005, year_tight)

    def test_ad_generalizes_pc(self):
        pc = (
            QueryBuilder()
            .backbone("a", label="x")
            .backbone("b", parent="a", edge="pc", label="y")
            .outputs("a", "b")
            .build()
        )
        ad = (
            QueryBuilder()
            .backbone("a", label="x")
            .backbone("b", parent="a", edge="ad", label="y")
            .outputs("a", "b")
            .build()
        )
        assert is_contained(pc, ad)
        assert not is_contained(ad, pc)

    def test_output_arity_mismatch(self):
        one = QueryBuilder().backbone("a", label="x").outputs("a").build()
        two = (
            QueryBuilder()
            .backbone("a", label="x")
            .backbone("b", parent="a", label="y")
            .outputs("a", "b")
            .build()
        )
        assert not is_contained(one, two)
        assert not is_contained(two, one)


@settings(max_examples=30, deadline=None)
@given(random_dags(max_nodes=8), st.data())
def test_containment_is_sound_on_random_graphs(graph, data):
    """If Q1 ⊑ Q2 is decided, answers must actually be contained."""
    for node in graph.nodes():
        graph.set_attr(node, "label", data.draw(st.sampled_from("xy")))
    loose = QueryBuilder().backbone("a", label="x").outputs("a").build()
    tight = (
        QueryBuilder()
        .backbone("a", label="x")
        .predicate("p", parent="a", label="y")
        .outputs("a")
        .build()
    )
    assert is_contained(tight, loose)
    answers_tight = evaluate_naive(tight, graph)
    answers_loose = evaluate_naive(loose, graph)
    assert answers_tight <= answers_loose
