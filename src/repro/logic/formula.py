"""Propositional formula abstract syntax trees.

GTPQ structural predicates (paper Section 2) are propositional formulas over
variables associated with predicate-child query nodes.  This module provides
an immutable, hashable AST with light-weight smart constructors.  Heavier
transformations (substitution, normal forms) live in
:mod:`repro.logic.transform`, and satisfiability in :mod:`repro.logic.sat`.

Formulas are built from:

* :data:`TRUE` / :data:`FALSE` — the constants ``1`` and ``0``;
* :class:`Var` — a named propositional variable;
* :class:`Not` — negation;
* :class:`And` / :class:`Or` — n-ary conjunction / disjunction.

The smart constructors :func:`land`, :func:`lor` and :func:`lnot` perform
cheap, local simplifications (constant folding, flattening of nested
same-kind connectives, deduplication of operands) so that formulas produced
by repeated substitution stay small.
"""

from __future__ import annotations

from typing import Iterable, Iterator


#: slots :meth:`Formula.__getstate__` leaves out.
_UNPICKLED = frozenset({"_hash", "__weakref__"})


class Formula:
    """Base class of all propositional formulas.

    Instances are immutable and hashable; ``==`` is structural equality
    (after the normalization done by the smart constructors, *not* logical
    equivalence).  Python's ``&``, ``|`` and ``~`` operators are overloaded
    as conjunction, disjunction and negation for readable query
    construction::

        fs = Var("u2") & ~Var("u3")
    """

    # ``_vars`` lazily caches the variables() frozenset and ``_hash`` the
    # structural hash; formulas are immutable, so neither can go stale.
    # ``__weakref__`` lets one parse serve every query with the same text
    # (:func:`repro.logic.parser.shared_formula`).
    __slots__ = ("_vars", "_hash", "__weakref__")

    def __and__(self, other: "Formula") -> "Formula":
        return land(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return lor(self, other)

    def __invert__(self) -> "Formula":
        return lnot(self)

    # Pickle support: the default slot-state protocol restores slots via
    # setattr, which the subclasses' immutability guards reject, so
    # formulas inside persisted plans would fail to *un*pickle.  Spell
    # the state out and restore it through object.__setattr__.
    #
    # ``_hash`` stays out of the state: ``str`` hashes are salted per
    # process, so a hash pickled by one process would disagree with the
    # hashes another process computes for equal formulas, and set/dict
    # lookups (``land``/``lor`` dedup, the Tseitin cache) would miss.
    # ``_vars`` is a frozenset of names and re-hashes on load.  A weak
    # reference does not pickle, and ``__weakref__`` is not state.
    def __getstate__(self):
        state = {}
        for klass in type(self).__mro__:
            for slot in getattr(klass, "__slots__", ()):
                if slot in _UNPICKLED:
                    continue
                try:
                    state[slot] = getattr(self, slot)
                except AttributeError:
                    pass  # the _vars memo may be unset
        return state

    def __setstate__(self, state):
        for slot, value in state.items():
            object.__setattr__(self, slot, value)

    def _structure(self) -> tuple:
        """What ``==`` compares, as a hashable tuple (per subclass)."""
        raise NotImplementedError

    def __hash__(self) -> int:
        # Substitution, the smart constructors and the analysis memos put
        # the same nodes into sets and dicts over and over; without the
        # memo every lookup re-hashes the whole subtree.
        try:
            return self._hash
        except AttributeError:
            pass
        value = hash(self._structure())
        object.__setattr__(self, "_hash", value)
        return value

    def variables(self) -> frozenset[str]:
        """Return the set of variable names occurring in the formula.

        Computed once and cached on the instance; callers on hot paths
        (the pruning loops) may call this freely.
        """
        try:
            return self._vars
        except AttributeError:
            pass
        out: set[str] = set()
        stack: list[Formula] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, Var):
                out.add(node.name)
            elif isinstance(node, Not):
                stack.append(node.child)
            elif isinstance(node, (And, Or)):
                stack.extend(node.children)
        frozen = frozenset(out)
        # The immutability guards block normal attribute writes; the
        # cache slot is the one sanctioned exception.
        object.__setattr__(self, "_vars", frozen)
        return frozen

    def walk(self) -> Iterator["Formula"]:
        """Yield every sub-formula (including ``self``), pre-order."""
        stack: list[Formula] = [self]
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, Not):
                stack.append(node.child)
            elif isinstance(node, (And, Or)):
                stack.extend(reversed(node.children))

    def size(self) -> int:
        """Number of AST nodes; a rough complexity measure for tests."""
        return sum(1 for _ in self.walk())

    def is_constant(self) -> bool:
        return isinstance(self, Const)


class Const(Formula):
    """A Boolean constant.  Use the singletons :data:`TRUE` / :data:`FALSE`."""

    __slots__ = ("value",)

    def __init__(self, value: bool):
        object.__setattr__(self, "value", bool(value))

    def __setattr__(self, *args):  # pragma: no cover - immutability guard
        raise AttributeError("Const is immutable")

    def __repr__(self) -> str:
        return "TRUE" if self.value else "FALSE"

    def __str__(self) -> str:
        return "1" if self.value else "0"

    def __eq__(self, other) -> bool:
        return isinstance(other, Const) and self.value == other.value

    def _structure(self) -> tuple:
        return ("const", self.value)

    # Defining __eq__ resets __hash__ to None; take the memoized one back.
    __hash__ = Formula.__hash__


#: The constant true formula (paper notation: ``1``).
TRUE = Const(True)
#: The constant false formula (paper notation: ``0``).
FALSE = Const(False)


class Var(Formula):
    """A propositional variable.

    In structural predicates the variable name is the identifier of the
    query node the variable belongs to (``p_u`` in the paper is written
    simply ``Var(u)`` here).
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", str(name))

    def __setattr__(self, *args):  # pragma: no cover - immutability guard
        raise AttributeError("Var is immutable")

    def __repr__(self) -> str:
        return f"Var({self.name!r})"

    def __str__(self) -> str:
        return self.name

    def __eq__(self, other) -> bool:
        return isinstance(other, Var) and self.name == other.name

    def _structure(self) -> tuple:
        return ("var", self.name)

    __hash__ = Formula.__hash__


class Not(Formula):
    """Negation.  Built via :func:`lnot`, which folds double negation."""

    __slots__ = ("child",)

    def __init__(self, child: Formula):
        object.__setattr__(self, "child", child)

    def __setattr__(self, *args):  # pragma: no cover - immutability guard
        raise AttributeError("Not is immutable")

    def __repr__(self) -> str:
        return f"Not({self.child!r})"

    def __str__(self) -> str:
        return f"!{_wrap(self.child)}"

    def __eq__(self, other) -> bool:
        return isinstance(other, Not) and self.child == other.child

    def _structure(self) -> tuple:
        return ("not", self.child)

    __hash__ = Formula.__hash__


class _Nary(Formula):
    """Shared implementation of n-ary connectives (conjunction/disjunction)."""

    __slots__ = ("children",)
    _tag = ""
    _sep = ""

    def __init__(self, children: Iterable[Formula]):
        object.__setattr__(self, "children", tuple(children))

    def __setattr__(self, *args):  # pragma: no cover - immutability guard
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self) -> str:
        inner = ", ".join(repr(c) for c in self.children)
        return f"{type(self).__name__}([{inner}])"

    def __str__(self) -> str:
        return self._sep.join(_wrap(c) for c in self.children)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.children == other.children

    def _structure(self) -> tuple:
        return (self._tag, self.children)

    __hash__ = Formula.__hash__


class And(_Nary):
    """N-ary conjunction.  Built via :func:`land`."""

    __slots__ = ()
    _tag = "and"
    _sep = " & "


class Or(_Nary):
    """N-ary disjunction.  Built via :func:`lor`."""

    __slots__ = ()
    _tag = "or"
    _sep = " | "


def _wrap(f: Formula) -> str:
    """Parenthesize compound operands when stringifying."""
    if isinstance(f, (And, Or)):
        return f"({f})"
    return str(f)


def land(*operands: Formula) -> Formula:
    """Smart conjunction: folds constants, flattens, deduplicates.

    ``land()`` with no operands is :data:`TRUE` (the neutral element), which
    matches the paper's convention ``fs(u) = 1`` for nodes without predicate
    children.
    """
    flat: list[Formula] = []
    seen: set[Formula] = set()
    for op in operands:
        if op is None:
            raise TypeError("land() operand is None")
        if isinstance(op, Const):
            if not op.value:
                return FALSE
            continue
        parts = op.children if isinstance(op, And) else (op,)
        for part in parts:
            if part not in seen:
                seen.add(part)
                flat.append(part)
    # x & !x -> FALSE (cheap complementary-literal check)
    for part in flat:
        if isinstance(part, Not) and part.child in seen:
            return FALSE
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(flat)


def lor(*operands: Formula) -> Formula:
    """Smart disjunction: folds constants, flattens, deduplicates.

    ``lor()`` with no operands is :data:`FALSE` (the neutral element).
    """
    flat: list[Formula] = []
    seen: set[Formula] = set()
    for op in operands:
        if op is None:
            raise TypeError("lor() operand is None")
        if isinstance(op, Const):
            if op.value:
                return TRUE
            continue
        parts = op.children if isinstance(op, Or) else (op,)
        for part in parts:
            if part not in seen:
                seen.add(part)
                flat.append(part)
    for part in flat:
        if isinstance(part, Not) and part.child in seen:
            return TRUE
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(flat)


def lnot(operand: Formula) -> Formula:
    """Smart negation: folds constants and double negation."""
    if isinstance(operand, Const):
        return FALSE if operand.value else TRUE
    if isinstance(operand, Not):
        return operand.child
    return Not(operand)


def lxor(a: Formula, b: Formula) -> Formula:
    """Exclusive-or, expressed with the basic connectives.

    Used by the paper's independently-constraint-node test
    (Section 3.1): ``(f[p/1] XOR f[p/0]) AND fs(u)``.
    """
    return lor(land(a, lnot(b)), land(lnot(a), b))


def implies(a: Formula, b: Formula) -> Formula:
    """Material implication ``a -> b`` as a formula."""
    return lor(lnot(a), b)


def var(name: str) -> Var:
    """Convenience factory mirroring the paper's ``p_u`` notation."""
    return Var(name)
