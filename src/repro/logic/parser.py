"""Text parser for propositional formulas.

Grammar (standard precedence ``!`` > ``&`` > ``|``)::

    formula   := or_expr
    or_expr   := and_expr ( ("|" | "or")  and_expr )*
    and_expr  := not_expr ( ("&" | "and") not_expr )*
    not_expr  := ("!" | "~" | "not") not_expr | atom
    atom      := "0" | "1" | "true" | "false" | IDENT | "(" formula ")"

Identifiers match ``[A-Za-z_][A-Za-z0-9_.:-]*`` so that query node ids like
``u2`` or ``bidder`` can be used directly, mirroring the paper's Table 4
predicates (e.g. ``"bidder | seller"`` for DIS1).
"""

from __future__ import annotations

import re
from weakref import WeakValueDictionary

from .formula import FALSE, TRUE, Formula, Var, land, lnot, lor


class FormulaParseError(ValueError):
    """Raised when the input text is not a well-formed formula."""


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<lparen>\()|(?P<rparen>\))|(?P<and>&&?|\band\b|∧)"
    r"|(?P<or>\|\|?|\bor\b|∨)|(?P<not>!|~|\bnot\b|¬)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_.:-]*|[01]))",
    re.IGNORECASE,
)

_CONSTANTS = {"0": FALSE, "false": FALSE, "1": TRUE, "true": TRUE}


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            remainder = text[pos:].strip()
            if not remainder:
                break
            raise FormulaParseError(f"unexpected input at {remainder[:20]!r}")
        pos = match.end()
        kind = match.lastgroup
        assert kind is not None
        tokens.append((kind, match.group(kind)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]]):
        self._tokens = tokens
        self._index = 0

    def _peek(self) -> str | None:
        if self._index < len(self._tokens):
            return self._tokens[self._index][0]
        return None

    def _advance(self) -> tuple[str, str]:
        token = self._tokens[self._index]
        self._index += 1
        return token

    def parse(self) -> Formula:
        result = self._or_expr()
        if self._index != len(self._tokens):
            kind, value = self._tokens[self._index]
            raise FormulaParseError(f"trailing input at token {value!r}")
        return result

    def _or_expr(self) -> Formula:
        operands = [self._and_expr()]
        while self._peek() == "or":
            self._advance()
            operands.append(self._and_expr())
        return lor(*operands) if len(operands) > 1 else operands[0]

    def _and_expr(self) -> Formula:
        operands = [self._not_expr()]
        while self._peek() == "and":
            self._advance()
            operands.append(self._not_expr())
        return land(*operands) if len(operands) > 1 else operands[0]

    def _not_expr(self) -> Formula:
        if self._peek() == "not":
            self._advance()
            return lnot(self._not_expr())
        return self._atom()

    def _atom(self) -> Formula:
        kind = self._peek()
        if kind == "lparen":
            self._advance()
            inner = self._or_expr()
            if self._peek() != "rparen":
                raise FormulaParseError("missing closing parenthesis")
            self._advance()
            return inner
        if kind == "ident":
            _, value = self._advance()
            constant = _CONSTANTS.get(value.lower())
            if constant is not None:
                return constant
            return Var(value)
        raise FormulaParseError(
            "expected a variable, constant or parenthesized formula"
            + (f", found {self._tokens[self._index][1]!r}" if kind else " at end of input")
        )


def parse_formula(text: str) -> Formula:
    """Parse ``text`` into a :class:`~repro.logic.formula.Formula`.

    >>> str(parse_formula("!u6 | (u7 & u8)"))
    '!u6 | (u7 & u8)'
    """
    tokens = _tokenize(text)
    if not tokens:
        raise FormulaParseError("empty formula")
    return _Parser(tokens).parse()


#: formula text → the live formula parsed from it (:func:`shared_formula`).
_SHARED: WeakValueDictionary = WeakValueDictionary()


def shared_formula(text: str) -> Formula:
    """:func:`parse_formula`, shared with every live formula parsed here
    from the same text.

    Equal texts parse to equal formulas, and formulas are immutable, so
    one object and its ``variables()`` and hash memos serve every query
    that carries the text.  The table holds no formula alive.  A text
    that folds to a constant (``"p | !p"``) is not entered: the constants
    never die, and its entry would not either.
    """
    formula = _SHARED.get(text)
    if formula is None:
        formula = parse_formula(text)
        if not formula.is_constant():
            _SHARED[text] = formula
    return formula
