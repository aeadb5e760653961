"""Unit tests for the formula → Python lowering (repro.logic.codegen)."""

import random

import pytest

from repro.logic import (
    FALSE,
    TRUE,
    LoweringError,
    Var,
    evaluate,
    implies,
    land,
    lnot,
    lor,
    lower_formula,
    lxor,
)
from repro.logic.assignment import all_assignments
from repro.logic.parser import parse_formula


class TestLowerFormula:
    def test_constants(self):
        assert lower_formula(TRUE, {}) == "True"
        assert lower_formula(FALSE, {}) == "False"

    def test_variable_substitution(self):
        assert lower_formula(Var("p"), {"p": "_b0"}) == "_b0"
        assert lower_formula(Var("p"), {"p": "(_x in _ps3)"}) == "(_x in _ps3)"

    def test_connectives(self):
        p, q = Var("p"), Var("q")
        names = {"p": "_b0", "q": "_b1"}
        assert lower_formula(land(p, q), names) == "(_b0 and _b1)"
        assert lower_formula(lor(p, q), names) == "(_b0 or _b1)"
        assert lower_formula(lnot(p), names) == "(not _b0)"

    def test_constant_folding_reaches_the_lowering(self):
        # The smart constructors fold before lowering ever runs, so a
        # formula with a dominant constant lowers to the bare literal —
        # the PR 3 bug class (minimization leaving fext = 0 on a leaf)
        # must surface as "False", not as an expression testing it.
        p = Var("p")
        assert lower_formula(land(p, FALSE), {"p": "_b0"}) == "False"
        assert lower_formula(lor(p, TRUE), {"p": "_b0"}) == "True"

    def test_unmapped_variable_raises(self):
        with pytest.raises(LoweringError, match="no expression for variable 'q'"):
            lower_formula(land(Var("p"), Var("q")), {"p": "_b0"})

    def test_lowering_error_is_a_value_error(self):
        assert issubclass(LoweringError, ValueError)


class TestLoweredExpressionSemantics:
    def exhaustive_check(self, formula, variables):
        """The lowered expression must agree with evaluate on every model."""
        names = {name: f"_bits[{position}]" for position, name in enumerate(variables)}
        code = compile(lower_formula(formula, names), "<lowered>", "eval")
        for assignment in all_assignments(variables):
            bits = tuple(assignment[name] for name in variables)
            lowered = eval(code, {"__builtins__": {}}, {"_bits": bits})
            assert bool(lowered) == evaluate(formula, assignment, default=False), (
                f"{formula} disagrees with evaluate at {assignment}"
            )

    def test_simple_formulas(self):
        p, q, r = Var("p"), Var("q"), Var("r")
        for formula in [
            p,
            lnot(p),
            land(p, q),
            lor(p, lnot(q)),
            lor(land(p, q), lnot(r)),
            implies(p, land(q, r)),
            lxor(p, q),
        ]:
            self.exhaustive_check(formula, ("p", "q", "r"))

    def test_paper_fs_u3(self):
        # fs(u3) = !u6 | (u7 & u8) from Fig. 2(b).
        formula = parse_formula("!u6 | (u7 & u8)")
        self.exhaustive_check(formula, ("u6", "u7", "u8"))

    def test_random_formulas_match_evaluate(self):
        """Seeded random ASTs: lowered output == recursive evaluate."""
        variables = ("a", "b", "c", "d")

        def random_formula(rng, depth):
            if depth == 0 or rng.random() < 0.3:
                return Var(rng.choice(variables))
            kind = rng.choice(["and", "or", "not"])
            if kind == "not":
                return lnot(random_formula(rng, depth - 1))
            children = [random_formula(rng, depth - 1) for _ in range(rng.randint(2, 3))]
            return land(*children) if kind == "and" else lor(*children)

        for seed in range(50):
            rng = random.Random(seed)
            self.exhaustive_check(random_formula(rng, 3), variables)
