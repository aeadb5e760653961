"""Tests for substitution, renaming and normal forms, incl. property tests."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.logic import (
    FALSE,
    TRUE,
    And,
    Not,
    Or,
    Var,
    all_assignments,
    cnf_clauses,
    dnf_terms,
    equivalent,
    evaluate,
    land,
    lnot,
    lor,
    rename,
    simplify,
    substitute,
    to_cnf,
    to_dnf,
    to_nnf,
)
from tests.logic.test_sat import formulas


class TestSubstitution:
    def test_substitute_constant(self):
        f = land(Var("p"), Var("q"))
        assert substitute(f, {"p": True}) == Var("q")
        assert substitute(f, {"p": False}) is FALSE

    def test_paper_notation_f_p_over_x(self):
        # fs(u3)[p_u5/0] from Example 6: ((u5&u6)|(!u5&u6))[u5/0] = u6
        fs_u3 = lor(land(Var("u5"), Var("u6")), land(lnot(Var("u5")), Var("u6")))
        assert substitute(fs_u3, {"u5": False}) == Var("u6")

    def test_substitute_formula(self):
        # ftr construction: p_u' replaced by (p_u' & ftr(u')).
        f = lor(lnot(Var("u6")), land(Var("u7"), Var("u8")))
        g = substitute(f, {"u7": land(Var("u7"), lor(Var("u9"), Var("u10")))})
        assert g.variables() == {"u6", "u7", "u8", "u9", "u10"}

    def test_substitute_missing_variable_is_noop(self):
        f = Var("p")
        assert substitute(f, {"q": True}) == f

    def test_rename(self):
        f = land(Var("u2"), lnot(Var("u3")))
        g = rename(f, {"u2": "v2", "u3": "v3"})
        assert g == land(Var("v2"), lnot(Var("v3")))


class TestSimplify:
    def test_idempotent(self):
        f = lor(land(Var("p"), TRUE), FALSE)
        assert simplify(f) == simplify(simplify(f))

    def test_removes_constants_introduced_by_raw_ast(self):
        raw = Or([And([Var("p"), TRUE]), FALSE])
        assert simplify(raw) == Var("p")


class TestNormalForms:
    def test_nnf_pushes_negation_inward(self):
        f = lnot(land(Var("p"), Var("q")))
        nnf = to_nnf(f)
        assert nnf == lor(lnot(Var("p")), lnot(Var("q")))

    def test_nnf_de_morgan_or(self):
        f = lnot(lor(Var("p"), Var("q")))
        assert to_nnf(f) == land(lnot(Var("p")), lnot(Var("q")))

    def test_cnf_shape(self):
        f = lor(land(Var("a"), Var("b")), Var("c"))
        cnf = to_cnf(f)
        clauses = cnf_clauses(cnf)
        assert sorted(sorted(clause) for clause in clauses) == [
            sorted([("a", True), ("c", True)]),
            sorted([("b", True), ("c", True)]),
        ]

    def test_dnf_terms_of_dis_neg2(self):
        # (!bidder & seller) | (bidder & !seller) -> two consistent terms.
        f = lor(
            land(lnot(Var("bidder")), Var("seller")),
            land(Var("bidder"), lnot(Var("seller"))),
        )
        terms = dnf_terms(f)
        assert {frozenset(t.items()) for t in terms} == {
            frozenset({("bidder", False), ("seller", True)}),
            frozenset({("bidder", True), ("seller", False)}),
        }

    def test_dnf_terms_of_constants(self):
        assert dnf_terms(TRUE) == [{}]
        assert dnf_terms(FALSE) == []

    def test_inconsistent_terms_dropped(self):
        raw = And([Var("p"), Not(Var("p"))])
        assert dnf_terms(raw) == []


@settings(max_examples=150, deadline=None)
@given(formulas())
def test_nnf_preserves_equivalence(f):
    assert equivalent(f, to_nnf(f))


@settings(max_examples=100, deadline=None)
@given(formulas(max_leaves=6))
def test_cnf_preserves_equivalence(f):
    assert equivalent(f, to_cnf(f))


@settings(max_examples=100, deadline=None)
@given(formulas(max_leaves=6))
def test_dnf_preserves_equivalence(f):
    assert equivalent(f, to_dnf(f))


@settings(max_examples=100, deadline=None)
@given(formulas())
def test_simplify_preserves_equivalence(f):
    assert equivalent(f, simplify(f))


@settings(max_examples=200, deadline=None)
@given(formulas(), formulas(max_leaves=4), st.sampled_from(["p", "q", "r"]))
def test_substitution_leaves_nothing_to_simplify(f, g, name):
    """``substitute`` rebuilds through the smart constructors, as ``simplify``
    does: binding a simplified formula (``ftr`` binds ``p_c & ftr(c)``) yields
    a formula ``simplify`` returns unchanged, and binding nothing *is* simplify."""
    bound = substitute(f, {name: simplify(g)})
    assert simplify(bound) == bound and str(simplify(bound)) == str(bound)
    assert substitute(f, {}) == simplify(f) == simplify(simplify(f))


@settings(max_examples=100, deadline=None)
@given(formulas(max_leaves=6))
def test_dnf_terms_cover_exactly_the_models(f):
    """Every model satisfies some DNF term and vice versa."""
    terms = dnf_terms(f)
    for assignment in all_assignments(f.variables()):
        value = evaluate(f, assignment)
        covered = any(
            all(assignment.get(name, False) == polarity for name, polarity in term.items())
            for term in terms
        )
        assert value == covered


@settings(max_examples=100, deadline=None)
@given(formulas(), st.sampled_from(["p", "q", "r"]), st.booleans())
def test_substitution_matches_semantic_restriction(f, name, value):
    g = substitute(f, {name: value})
    for assignment in all_assignments(f.variables() | {name}):
        forced = dict(assignment)
        forced[name] = value
        assert evaluate(g, assignment, default=False) == evaluate(f, forced, default=False)
