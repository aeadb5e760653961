"""Formula → Python lowering for the plan-codegen backend.

The pruning loops evaluate one structural predicate per candidate, and
the generic evaluator (:func:`repro.logic.assignment.evaluate`) walks
the AST recursively with a dict-backed valuation every time.  This
module lowers a :class:`~repro.logic.formula.Formula` *once* into a flat
Python boolean expression — constants folded away, each variable
replaced by a caller-chosen expression — so a compiled prune loop pays
zero AST traversal and zero dict lookups per candidate.

The one artifact is :func:`lower_formula` — the expression *source* (a
string), which the source-emitting backend (:mod:`repro.plan.codegen`)
splices into a generated prune loop.
"""

from __future__ import annotations

from typing import Mapping

from .formula import And, Const, Formula, Not, Or, Var


class LoweringError(ValueError):
    """A formula cannot be lowered (unknown node kind or unmapped variable)."""


def lower_formula(formula: Formula, names: Mapping[str, str]) -> str:
    """Lower ``formula`` to a Python boolean expression string.

    Args:
        formula: the formula to lower.
        names: per variable name, the Python expression to substitute —
            a local (``"_b0"``), a membership test (``"(_x in _ps0)"``),
            or any other boolean-valued expression.  Every variable of
            the formula must be mapped.

    Constants fold at lowering time: the smart constructors already
    guarantee a formula is either the constant ``TRUE``/``FALSE`` or
    constant-free, so the emitted expression never tests a literal.
    """
    if isinstance(formula, Const):
        return "True" if formula.value else "False"
    if isinstance(formula, Var):
        try:
            return names[formula.name]
        except KeyError:
            raise LoweringError(f"no expression for variable {formula.name!r}") from None
    if isinstance(formula, Not):
        return f"(not {lower_formula(formula.child, names)})"
    if isinstance(formula, And):
        return "(" + " and ".join(lower_formula(c, names) for c in formula.children) + ")"
    if isinstance(formula, Or):
        return "(" + " or ".join(lower_formula(c, names) for c in formula.children) + ")"
    raise LoweringError(f"cannot lower {formula!r}")

