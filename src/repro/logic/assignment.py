"""Truth assignments and formula evaluation.

The GTEA pruning passes (paper Procedure 6) repeatedly evaluate a structural
predicate ``fs(u)`` under a valuation ``val`` of its child variables; this
module provides that evaluation plus helpers to enumerate models for the
exhaustive checks used in tests and in the analysis package.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, Mapping

from .formula import And, Const, Formula, Not, Or, Var

Assignment = Mapping[str, bool]


def evaluate(formula: Formula, assignment: Assignment, default: bool | None = None) -> bool:
    """Evaluate ``formula`` under ``assignment``.

    Args:
        formula: the formula to evaluate.
        assignment: mapping from variable name to truth value.
        default: value used for variables missing from ``assignment``; if
            ``None`` (the default) a missing variable raises ``KeyError``,
            which catches engine bugs where a child valuation was skipped.

    Returns:
        The truth value of the formula.
    """
    if isinstance(formula, Const):
        return formula.value
    if isinstance(formula, Var):
        if formula.name in assignment:
            return bool(assignment[formula.name])
        if default is None:
            raise KeyError(f"no value for variable {formula.name!r}")
        return default
    if isinstance(formula, Not):
        return not evaluate(formula.child, assignment, default)
    if isinstance(formula, And):
        return all(evaluate(c, assignment, default) for c in formula.children)
    if isinstance(formula, Or):
        return any(evaluate(c, assignment, default) for c in formula.children)
    raise TypeError(f"not a formula: {formula!r}")


def all_assignments(variables: Iterable[str]) -> Iterator[dict[str, bool]]:
    """Yield every assignment over ``variables`` (2^n of them).

    Only used for small variable counts (query predicates are tiny in
    practice, as the paper notes in Section 3.3).
    """
    names = sorted(set(variables))
    for values in product((False, True), repeat=len(names)):
        yield dict(zip(names, values))


def models(formula: Formula) -> Iterator[dict[str, bool]]:
    """Yield all satisfying assignments of ``formula`` by enumeration."""
    for assignment in all_assignments(formula.variables()):
        if evaluate(formula, assignment):
            yield assignment


def brute_force_satisfiable(formula: Formula) -> bool:
    """Exhaustive satisfiability check; test oracle for the DPLL solver."""
    return next(models(formula), None) is not None


def brute_force_tautology(formula: Formula) -> bool:
    """Exhaustive tautology check; test oracle for the DPLL solver."""
    return all(evaluate(formula, assignment) for assignment in all_assignments(formula.variables()))
