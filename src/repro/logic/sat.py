"""Satisfiability, tautology and entailment on structural predicates.

Section 3 of the paper reduces every hard query-analysis question to SAT
or TAUT instances over structural-predicate variables:

* satisfiability of a GTPQ  -> SAT of ``fa(root)`` and ``fcs(root)`` (Thm 1);
* containment (Thm 3)       -> a tautology check per candidate homomorphism;
* minimization (Alg. 1)     -> tautology checks ``fcs(root) -> ±p_u``.

The paper argues (Sec. 3.3) that off-the-shelf SAT is fine because queries
are small.  Small is also what makes search unnecessary: a formula over
``k <= TABLE_MAX_VARS`` variables is decided from its *truth table*, one
Python integer of ``2^k`` bits (bit ``j`` is the value under the
assignment whose bit ``i`` is variable ``i``).  A variable is a fixed
column mask, ``And``/``Or``/``Not`` are ``&``/``|``/``^ full``, so one
decision is a handful of big-integer operations with no CNF and no
clause database.  Tseitin encoding + DPLL (unit propagation, pure-literal
elimination) remains the path for wider formulas and the only one that
extracts a model (:func:`satisfying_assignment`).
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, Mapping

from .formula import And, Const, Formula, Not, Or, Var, land, lnot, lor
from .transform import substitute
from .tseitin import Clause, CnfInstance, tseitin_cnf

#: Widest formula decided by truth table; wider ones go through DPLL.
#: Measured cross-over, median µs per decision, table vs Tseitin + DPLL, on
#: random And/Or/Not trees and on fcs-shaped clause conjunctions of 60-130
#: AST nodes (CPython 3.11): k=8 10 vs 90-140, k=12 17 vs 150-310, k=16
#: 66 vs 300-490, k=18 170 vs 260-620, k=20 1 900 vs 300-750 (a 128 KiB
#: table per operand leaves the cache), k=24 69 000 vs 200-750.  The
#: curves cross at 19; 16 is the last width where the table wins by >= 4x
#: on both families (DPLL's time depends on the formula, the table's does
#: not) and keeps every column mask ever built under 256 KiB in total.
TABLE_MAX_VARS = 16


@cache
def _columns(width: int) -> tuple[int, ...]:
    """Column masks of a ``width``-variable truth table (built once each).

    Column ``i`` has bit ``j`` set iff bit ``i`` of ``j`` is set: blocks of
    ``2^i`` zeros then ``2^i`` ones, repeated across the ``2^width`` bits.
    """
    full = (1 << (1 << width)) - 1
    columns = []
    for i in range(width):
        half = 1 << i
        block = ((1 << half) - 1) << half  # one period: 2^i zeros, 2^i ones
        columns.append(block * (full // ((1 << (2 * half)) - 1)))
    return tuple(columns)


def _layout(names: Iterable[str]) -> tuple[dict[str, int], int]:
    """Assign a column to every name; returns (name -> column, all-ones)."""
    names = tuple(names)
    return dict(zip(names, _columns(len(names)))), (1 << (1 << len(names))) - 1


def _table(formula: Formula, columns: Mapping[str, int], full: int) -> int:
    """Truth table of ``formula`` under the given column layout."""
    if isinstance(formula, Var):
        return columns[formula.name]
    if isinstance(formula, And):
        bits = full
        for child in formula.children:
            bits &= _table(child, columns, full)
            if not bits:
                break
        return bits
    if isinstance(formula, Or):
        bits = 0
        for child in formula.children:
            bits |= _table(child, columns, full)
            if bits == full:
                break
        return bits
    if isinstance(formula, Not):
        return full ^ _table(formula.child, columns, full)
    if isinstance(formula, Const):
        return full if formula.value else 0
    raise TypeError(f"not a formula: {formula!r}")


def is_satisfiable(formula: Formula) -> bool:
    """True iff some assignment satisfies ``formula``."""
    names = formula.variables()
    if len(names) > TABLE_MAX_VARS:
        return satisfying_assignment(formula) is not None
    return _table(formula, *_layout(names)) != 0


def satisfying_assignment(formula: Formula) -> dict[str, bool] | None:
    """Return a model of ``formula`` over its original variables, or None.

    Always Tseitin + DPLL, whatever the variable count.
    """
    instance = tseitin_cnf(formula)
    model = _dpll(instance)
    if model is None:
        return None
    return instance.decode(model)


def is_tautology(formula: Formula) -> bool:
    """True iff ``formula`` holds under every assignment."""
    names = formula.variables()
    if len(names) > TABLE_MAX_VARS:
        return satisfying_assignment(lnot(formula)) is None
    columns, full = _layout(names)
    return _table(formula, columns, full) == full


def entails(antecedent: Formula, consequent: Formula) -> bool:
    """True iff ``antecedent -> consequent`` is a tautology.

    This is the workhorse of the similarity/homomorphism conditions
    (``ftr(u2) -> ftr(u1)[u1 |-> u2]`` etc.).
    """
    names = antecedent.variables() | consequent.variables()
    if len(names) > TABLE_MAX_VARS:
        return satisfying_assignment(land(antecedent, lnot(consequent))) is None
    columns, full = _layout(names)
    models = _table(antecedent, columns, full)
    return not models or not models & ~_table(consequent, columns, full)


def forced_literals(formula: Formula, names: Iterable[str]) -> dict[str, bool]:
    """The names whose variable takes one value in every model of ``formula``.

    ``result[name]`` is ``True`` when ``formula -> p_name`` is a tautology,
    else ``False`` when ``formula -> !p_name`` is; names left free by some
    pair of models are absent.  (An unsatisfiable formula entails both,
    and reports ``True``.)  This is Algorithm 1 lines 8 and 16 for every
    node at once: one truth table and two mask tests per name.
    """
    forced: dict[str, bool] = {}
    variables = formula.variables()
    if len(variables) > TABLE_MAX_VARS:
        for name in names:
            if entails(formula, Var(name)):
                forced[name] = True
            elif entails(formula, Not(Var(name))):
                forced[name] = False
        return forced
    columns, full = _layout(variables)
    models = _table(formula, columns, full)
    for name in names:
        column = columns.get(name)
        if column is None:  # a variable the formula never mentions
            if not models:
                forced[name] = True
        elif not models & ~column:
            forced[name] = True
        elif not models & column:
            forced[name] = False
    return forced


def essential_variables(formula: Formula) -> frozenset[str]:
    """The variables ``p`` that matter: ``f[p/1] XOR f[p/0]`` is satisfiable.

    One truth table decides all of them: variable ``i`` matters iff the
    table differs from itself shifted by ``2^i`` where column ``i`` is 0.
    """
    names = formula.variables()
    if len(names) > TABLE_MAX_VARS:
        return frozenset(
            name
            for name in names
            if xor_satisfiable(
                substitute(formula, {name: True}), substitute(formula, {name: False})
            )
        )
    columns, full = _layout(names)
    table = _table(formula, columns, full)
    return frozenset(
        name
        for i, (name, column) in enumerate(columns.items())
        if (table ^ (table >> (1 << i))) & (full ^ column)
    )


def equivalent(left: Formula, right: Formula) -> bool:
    """True iff the two formulas agree under every assignment."""
    return entails(left, right) and entails(right, left)


def _dpll(instance: CnfInstance) -> dict[int, bool] | None:
    """DPLL with unit propagation and pure-literal elimination.

    Returns a (possibly partial) model as ``{var_index: value}`` or ``None``
    if unsatisfiable.  Clauses are represented as literal lists; the solver
    copies the clause database on branching, which is acceptable for the
    query-sized instances this library produces.
    """
    clauses = [list(clause) for clause in instance.clauses]
    assignment: dict[int, bool] = {}
    if not _search(clauses, assignment):
        return None
    return assignment


def _search(clauses: list[Clause], assignment: dict[int, bool]) -> bool:
    clauses = _propagate(clauses, assignment)
    if clauses is None:
        return False
    if not clauses:
        return True

    # Pure literal elimination: a variable occurring with one polarity only
    # can be set to that polarity without loss.
    polarity_seen: dict[int, set[bool]] = {}
    for clause in clauses:
        for index, polarity in clause:
            polarity_seen.setdefault(index, set()).add(polarity)
    pures = {
        index: next(iter(polarities))
        for index, polarities in polarity_seen.items()
        if len(polarities) == 1
    }
    if pures:
        assignment.update(pures)
        remaining = [clause for clause in clauses if not any(index in pures for index, _ in clause)]
        return _search(remaining, assignment)

    # Branch on the first literal of the shortest clause.
    branch_clause = min(clauses, key=len)
    index, polarity = branch_clause[0]
    for value in (polarity, not polarity):
        trail = dict(assignment)
        trail[index] = value
        copied = [list(clause) for clause in clauses]
        if _search(copied, trail):
            assignment.clear()
            assignment.update(trail)
            return True
    return False


def _propagate(clauses: list[Clause], assignment: dict[int, bool]) -> list[Clause] | None:
    """Unit propagation; returns simplified clauses or None on conflict."""
    changed = True
    while changed:
        changed = False
        next_clauses: list[Clause] = []
        for clause in clauses:
            simplified: Clause = []
            satisfied = False
            for index, polarity in clause:
                if index in assignment:
                    if assignment[index] == polarity:
                        satisfied = True
                        break
                    continue  # literal falsified, drop it
                simplified.append((index, polarity))
            if satisfied:
                continue
            if not simplified:
                return None  # empty clause: conflict
            if len(simplified) == 1:
                index, polarity = simplified[0]
                assignment[index] = polarity
                changed = True
            else:
                next_clauses.append(simplified)
        clauses = next_clauses
    return clauses


def disjoint(left: Formula, right: Formula) -> bool:
    """True iff ``left & right`` is unsatisfiable (no shared model)."""
    return not is_satisfiable(land(left, right))


def xor_satisfiable(left: Formula, right: Formula) -> bool:
    """True iff some assignment distinguishes ``left`` from ``right``.

    Equivalent to "left and right are *not* logically equivalent"; used by
    the independently-constraint-node test of Section 3.1.
    """
    return is_satisfiable(lor(land(left, lnot(right)), land(lnot(left), right)))
