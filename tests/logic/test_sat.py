"""Tests for the truth-table kernel, the DPLL solver and the decision procedures."""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.logic import (
    FALSE,
    TRUE,
    And,
    Not,
    Or,
    Var,
    brute_force_satisfiable,
    brute_force_tautology,
    entails,
    equivalent,
    essential_variables,
    evaluate,
    forced_literals,
    is_satisfiable,
    is_tautology,
    land,
    lnot,
    lor,
    lxor,
    sat,
    satisfying_assignment,
    substitute,
    tseitin_cnf,
    xor_satisfiable,
)

_VARS = ["p", "q", "r", "s", "t"]


def formulas(max_leaves: int = 8):
    """Hypothesis strategy generating random formulas over five variables."""
    leaf = st.one_of(
        st.sampled_from([Var(name) for name in _VARS]),
        st.just(TRUE),
        st.just(FALSE),
    )
    return st.recursive(
        leaf,
        lambda children: st.one_of(
            children.map(lnot),
            st.lists(children, min_size=2, max_size=3).map(lambda cs: land(*cs)),
            st.lists(children, min_size=2, max_size=3).map(lambda cs: lor(*cs)),
        ),
        max_leaves=max_leaves,
    )


class TestSatisfiabilityBasics:
    def test_true_is_satisfiable(self):
        assert is_satisfiable(TRUE)

    def test_false_is_not_satisfiable(self):
        assert not is_satisfiable(FALSE)

    def test_variable_is_satisfiable(self):
        assert is_satisfiable(Var("p"))

    def test_contradiction(self):
        p = Var("p")
        # Build via AST directly to dodge the smart-constructor fold.
        from repro.logic.formula import And, Not

        assert not is_satisfiable(And([p, Not(p)]))

    def test_model_satisfies_formula(self):
        f = land(lor(Var("p"), Var("q")), lnot(Var("p")))
        model = satisfying_assignment(f)
        assert model is not None
        assert evaluate(f, model, default=False)

    def test_unsat_returns_none(self):
        f = land(Var("p"), lnot(Var("p")), Var("q"))
        # smart ctor folds this; use raw AST
        from repro.logic.formula import And, Not

        raw = And([Var("p"), Not(Var("p")), Var("q")])
        assert satisfying_assignment(raw) is None
        assert satisfying_assignment(f) is None

    def test_paper_example4_satisfiable_fcs(self):
        # fcs(u1) of Fig. 2(b): u5 & u4 & u3 & (!u6 | (u7 & (u9|u10) & u8))
        fcs = land(
            Var("u5"),
            Var("u4"),
            Var("u3"),
            lor(lnot(Var("u6")), land(Var("u7"), lor(Var("u9"), Var("u10")), Var("u8"))),
        )
        assert is_satisfiable(fcs)

    def test_paper_example4_unsatisfiable_q1(self):
        # f1cs(u1) = f2cs(u1) & (u6 -> (u2 & u4)) with fs(u1) = !(u2 & u4):
        # Q1 of Fig. 4 is unsatisfiable.
        f2cs = land(
            lnot(land(Var("u2"), Var("u4"))),
            Var("u3"),
            lor(
                land(Var("u5"), Var("u6"), Var("u7")),
                land(lnot(Var("u5")), Var("u6"), Var("u7")),
            ),
        )
        f1cs = land(f2cs, lor(lnot(Var("u6")), land(Var("u2"), Var("u4"))))
        assert is_satisfiable(f2cs)
        assert not is_satisfiable(f1cs)


class TestTautologyAndEntailment:
    def test_excluded_middle(self):
        from repro.logic.formula import Not, Or

        p = Var("p")
        assert is_tautology(Or([p, Not(p)]))

    def test_variable_is_not_tautology(self):
        assert not is_tautology(Var("p"))

    def test_entailment(self):
        p, q = Var("p"), Var("q")
        assert entails(land(p, q), p)
        assert not entails(p, land(p, q))

    def test_equivalence(self):
        p, q = Var("p"), Var("q")
        assert equivalent(land(p, q), land(q, p))
        assert not equivalent(land(p, q), lor(p, q))

    def test_xor_satisfiable_detects_difference(self):
        p, q = Var("p"), Var("q")
        assert xor_satisfiable(p, q)
        assert not xor_satisfiable(land(p, q), land(q, p))


class TestTseitin:
    def test_variable_count_linear(self):
        # Tseitin must not explode: CNF distribution of this formula is
        # exponential, the Tseitin instance stays linear.
        terms = [land(Var(f"a{i}"), Var(f"b{i}")) for i in range(12)]
        f = lor(*terms)
        instance = tseitin_cnf(f)
        assert instance.num_vars <= 2 * 12 + 12 + 1
        assert len(instance.clauses) <= 4 * 12 + 14

    def test_constant_instances(self):
        assert tseitin_cnf(TRUE).clauses == []
        assert tseitin_cnf(FALSE).clauses == [[]]


@settings(max_examples=200, deadline=None)
@given(formulas())
def test_dpll_agrees_with_brute_force_sat(formula):
    assert is_satisfiable(formula) == brute_force_satisfiable(formula)


@settings(max_examples=200, deadline=None)
@given(formulas())
def test_dpll_agrees_with_brute_force_tautology(formula):
    assert is_tautology(formula) == brute_force_tautology(formula)


@settings(max_examples=100, deadline=None)
@given(formulas())
def test_models_found_are_real_models(formula):
    model = satisfying_assignment(formula)
    if model is not None:
        assert evaluate(formula, model, default=False)


@settings(max_examples=100, deadline=None)
@given(formulas(), formulas())
def test_entailment_is_reflexive_and_consistent(f, g):
    assert entails(f, f)
    if entails(f, g) and entails(g, f):
        assert equivalent(f, g)


# ----------------------------------------------------------------------
# Table kernel vs Tseitin + DPLL vs brute force, on both sides of the cut-off
# ----------------------------------------------------------------------
#
# ``is_satisfiable`` & co. decide formulas over at most TABLE_MAX_VARS
# variables from a truth table and wider ones with DPLL, so the five-variable
# property tests above only ever reach the table.  These run every decider on
# the same formulas: the table kernel called directly (whatever the width),
# the DPLL path called directly (``satisfying_assignment``), and enumeration.

K = sat.TABLE_MAX_VARS


def table_satisfiable(formula) -> bool:
    return sat._table(formula, *sat._layout(formula.variables())) != 0


def wide_formula(rng: random.Random, width: int, satisfiable: bool):
    """A formula mentioning exactly ``width`` variables.

    A random And/Or/Not tree conjoined with an implication chain
    ``x0 -> x1 -> ... -> x_last``; the unsatisfiable flavour adds ``x0`` and
    ``!x_last`` (raw AST, so no smart constructor folds it away).
    """
    names = [f"x{i}" for i in range(width)]

    def tree(depth: int):
        if depth == 0 or rng.random() < 0.2:
            leaf = Var(rng.choice(names))
            return lnot(leaf) if rng.random() < 0.4 else leaf
        parts = [tree(depth - 1) for _ in range(rng.randint(2, 3))]
        node = land(*parts) if rng.random() < 0.5 else lor(*parts)
        return lnot(node) if rng.random() < 0.2 else node

    chain = [Or([Not(Var(a)), Var(b)]) for a, b in zip(names, names[1:])]
    if satisfiable:
        return And([Or([tree(3), Var(names[0])]), *chain])
    return And([Var(names[0]), Not(Var(names[-1])), *chain, tree(3)])


@pytest.mark.parametrize("width", [K - 1, K, K + 1])
def test_table_dpll_and_brute_force_agree_around_cutoff(width):
    rng = random.Random(width)
    verdicts = set()
    for case in range(6):
        formula = wide_formula(rng, width, satisfiable=bool(case % 3))
        assert len(formula.variables()) == width
        model = satisfying_assignment(formula)
        expected = brute_force_satisfiable(formula)
        assert table_satisfiable(formula) == expected
        assert (model is not None) == expected
        assert is_satisfiable(formula) == expected
        assert is_tautology(Not(formula)) == (not expected)
        if model is not None:
            assert evaluate(formula, model, default=False)
        verdicts.add(expected)
    assert verdicts == {True, False}


@pytest.mark.parametrize("width", [K - 1, K, K + 1])
def test_entailment_and_forced_literals_around_cutoff(width):
    """``a -> b`` and ``f -> ±p`` against their definitions by enumeration;
    the variable count of the *pair* is what picks the path."""
    rng = random.Random(100 + width)
    names = [f"x{i}" for i in range(width)]
    chain = land(*(lor(lnot(Var(a)), Var(b)) for a, b in zip(names, names[1:])))
    # x_mid and the chain force everything after mid; x_(mid-1) false forces
    # everything before it; nothing else is forced.
    mid = width // 2
    formula = land(chain, Var(names[mid]), lnot(Var(names[mid - 1])))
    forced = forced_literals(formula, names + ["elsewhere"])
    assert forced == {
        **{name: False for name in names[:mid]},
        **{name: True for name in names[mid:]},
    }
    for name in rng.sample(names, 2):
        assert entails(formula, Var(name)) == brute_force_tautology(Or([Not(formula), Var(name)]))
        assert entails(formula, lnot(Var(name))) == (forced.get(name) is False)
    assert entails(formula, chain) and not entails(chain, formula)
    # An unsatisfiable formula entails everything, mentioned or not.
    nothing = And([formula, Not(Var(names[-1]))])
    assert set(forced_literals(nothing, names + ["elsewhere"]).values()) == {True}
    assert entails(nothing, Var("elsewhere"))


@given(formulas())
@settings(max_examples=200, deadline=None)
def test_essential_variables_are_the_ones_a_flip_can_show(formula):
    """``p`` matters iff ``f[p/1] XOR f[p/0]`` is satisfiable, by enumeration."""
    expected = {
        name
        for name in formula.variables()
        if brute_force_satisfiable(
            lxor(substitute(formula, {name: True}), substitute(formula, {name: False}))
        )
    }
    assert essential_variables(formula) == expected


@pytest.mark.parametrize("width", [K, K + 1])
def test_essential_variables_around_cutoff(width):
    """The table path and the per-variable fallback agree on what matters."""
    names = [f"x{i}" for i in range(width)]
    absorbed = Or([Var(names[0]), And([Var(names[0]), Var(names[1])])])  # x1 never matters
    masked = And([Var(names[2]), Not(Var(names[2])), Var(names[3])])  # constant 0
    formula = Or([absorbed, masked, And([Var(name) for name in names[4:]])])
    assert formula.variables() == set(names)
    assert essential_variables(formula) == {names[0], *names[4:]}


def test_twenty_variables_go_through_dpll_and_yield_real_models():
    rng = random.Random(20)
    for case in range(6):
        expected = bool(case % 2)
        formula = wide_formula(rng, 20, satisfiable=expected)
        assert len(formula.variables()) == 20 > K
        model = satisfying_assignment(formula)
        assert (model is not None) == expected
        assert is_satisfiable(formula) == expected
        assert is_tautology(Not(formula)) == (not expected)
        if model is not None:
            assert evaluate(formula, model, default=False)


def test_constant_and_variable_free_formulas():
    for formula, expected in [
        (TRUE, True),
        (FALSE, False),
        (Not(FALSE), True),
        (And([TRUE, Not(TRUE)]), False),
        (Or([FALSE, And([TRUE, TRUE])]), True),
    ]:
        assert not formula.variables()
        assert table_satisfiable(formula) == expected
        assert (satisfying_assignment(formula) is not None) == expected
        assert brute_force_satisfiable(formula) == expected
        assert is_satisfiable(formula) == expected
        assert is_tautology(formula) == expected
        assert entails(TRUE, formula) == expected
        assert forced_literals(formula, ["p"]) == ({} if expected else {"p": True})


@settings(max_examples=200, deadline=None)
@given(formulas(), formulas())
def test_table_decisions_agree_with_dpll_and_enumeration(f, g):
    """The public deciders (table path at five variables) against DPLL
    called directly and against enumeration."""
    assert is_satisfiable(f) == (satisfying_assignment(f) is not None)
    assert is_tautology(f) == (satisfying_assignment(lnot(f)) is None)
    implication = lor(lnot(f), g)
    assert entails(f, g) == brute_force_tautology(implication)
    assert entails(f, g) == (satisfying_assignment(land(f, lnot(g))) is None)
    forced = forced_literals(f, _VARS)
    for name in _VARS:
        if brute_force_tautology(lor(lnot(f), Var(name))):
            assert forced[name] is True
        elif brute_force_tautology(lor(lnot(f), lnot(Var(name)))):
            assert forced[name] is False
        else:
            assert name not in forced
