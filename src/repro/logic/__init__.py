"""Propositional logic engine (docs/ARCHITECTURE.md, Layer 1).

Everything the paper's Sections 2–4 need from propositional logic:
formula ASTs, parsing, evaluation, substitution/renaming, normal forms,
Tseitin encoding, and a DPLL solver exposing SAT / tautology / entailment /
equivalence decision procedures.
"""

from .assignment import (
    all_assignments,
    brute_force_satisfiable,
    brute_force_tautology,
    evaluate,
    models,
)
from .formula import (
    FALSE,
    TRUE,
    And,
    Const,
    Formula,
    Not,
    Or,
    Var,
    implies,
    land,
    lnot,
    lor,
    lxor,
    var,
)
from .parser import FormulaParseError, parse_formula
from .sat import (
    disjoint,
    entails,
    equivalent,
    essential_variables,
    forced_literals,
    is_satisfiable,
    is_tautology,
    satisfying_assignment,
    xor_satisfiable,
)
from .transform import (
    cnf_clauses,
    dnf_terms,
    rename,
    simplify,
    substitute,
    to_cnf,
    to_dnf,
    to_nnf,
)
from .tseitin import CnfInstance, tseitin_cnf

__all__ = [
    "FALSE",
    "TRUE",
    "And",
    "CnfInstance",
    "Const",
    "Formula",
    "FormulaParseError",
    "Not",
    "Or",
    "Var",
    "all_assignments",
    "brute_force_satisfiable",
    "brute_force_tautology",
    "cnf_clauses",
    "disjoint",
    "dnf_terms",
    "entails",
    "equivalent",
    "essential_variables",
    "evaluate",
    "forced_literals",
    "implies",
    "is_satisfiable",
    "is_tautology",
    "land",
    "lnot",
    "lor",
    "lxor",
    "models",
    "parse_formula",
    "rename",
    "satisfying_assignment",
    "simplify",
    "substitute",
    "to_cnf",
    "to_dnf",
    "to_nnf",
    "tseitin_cnf",
    "var",
]
