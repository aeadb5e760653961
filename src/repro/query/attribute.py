"""Attribute predicates: conjunctions of ``A op a`` atoms (paper Sec. 2).

``fa(u)`` is a conjunction of comparisons between an attribute name and a
constant, with ``op ∈ {<, <=, =, !=, >, >=}``.  Besides evaluation against
a node's attribute tuple, this module implements the two static checks the
analysis algorithms need:

* :meth:`AttributePredicate.is_satisfiable` — per-attribute interval
  consistency (Theorem 2's proof assumes this linear-time check);
* :meth:`AttributePredicate.subsumes` — the paper's syntactic condition
  ``u2 ⊢ u1`` used by node similarity (Section 3.1); :func:`subsumer_rows`
  asks it of every ordered pair of a query's predicates at once.
"""

from __future__ import annotations

import json
from itertools import chain
from operator import eq, ge, le
from typing import Any, Iterable, Mapping, Sequence
from weakref import WeakValueDictionary

_OPS = ("<", "<=", "=", "!=", ">", ">=")
# The constant condition of ``u2 ⊢ u1`` per operator: the specific constant
# is at most, at least or equal to the general one.
_COMPATIBLE = {"<": le, "<=": le, ">": ge, ">=": ge, "=": eq, "!=": eq}
_COMPACT_JSON = json.JSONEncoder(separators=(",", ":"))
#: the operators whose condition is equal constants.
_BY_VALUE = frozenset({"=", "!="})
_NO_BITS: dict[str, int] = {}


def _compare(left: Any, op: str, right: Any) -> bool:
    try:
        if op == "=":
            return left == right
        if op == "!=":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
    except TypeError:
        return False  # incomparable types never satisfy a comparison
    raise ValueError(f"unknown operator {op!r}")


class AttributePredicate:
    """An immutable conjunction of ``(attribute, op, constant)`` atoms.

    The empty predicate (no atoms) matches every node — useful for
    wildcard query nodes like the starred ``*`` nodes of the paper's Fig. 1.

    ``_sat``, ``_canonical`` and ``_pin`` lazily cache the satisfiability
    verdict, the canonical rendering
    (:func:`repro.query.serialize.predicate_key`) and the pinned label
    (:func:`pinned_label_atom`); ``__reduce__`` rebuilds through
    ``__init__``, so none is pickled.  :func:`shared_predicate` hands out
    one instance per atom list, so the memos serve every query that
    carries it.
    """

    __slots__ = ("atoms", "_sat", "_canonical", "_pin", "__weakref__")

    def __init__(self, atoms: Iterable[tuple[str, str, Any]] = ()):
        normalized = []
        for attribute, op, constant in atoms:
            if op == "==":
                op = "="
            if op not in _OPS:
                raise ValueError(f"unknown operator {op!r}; expected one of {_OPS}")
            normalized.append((attribute, op, constant))
        object.__setattr__(self, "atoms", tuple(normalized))

    def __setattr__(self, *args):  # pragma: no cover - immutability guard
        raise AttributeError("AttributePredicate is immutable")

    def __reduce__(self):
        # Default slot-state pickling restores through __setattr__, which
        # the guard above rejects; rebuild through __init__ instead so
        # predicates inside persisted plans survive the round trip.
        return (type(self), (self.atoms,))

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    @classmethod
    def label(cls, value: Any) -> "AttributePredicate":
        """Predicate matching nodes whose ``label`` equals ``value``."""
        return cls([("label", "=", value)])

    @classmethod
    def tag_rank(cls, paper_label: str) -> "AttributePredicate":
        """The paper's figure convention: ``"C2"`` matches ``c2, c3, ...``.

        A data label ``x_i`` matches a query label ``Y_j`` iff ``x == y``
        and ``i >= j`` (Example 3).
        """
        head = paper_label.rstrip("0123456789")
        rank = int(paper_label[len(head) :])
        return cls([("tag", "=", head.lower()), ("rank", ">=", rank)])

    @classmethod
    def wildcard(cls) -> "AttributePredicate":
        """The always-true predicate (a ``*`` query node)."""
        return cls()

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def matches(self, attrs: Mapping[str, Any]) -> bool:
        """Does a node with attribute tuple ``attrs`` satisfy ``fa``?

        Per the paper's semantics, every named attribute must be present on
        the node with a value satisfying the comparison.
        """
        for attribute, op, constant in self.atoms:
            if attribute not in attrs:
                return False
            if not _compare(attrs[attribute], op, constant):
                return False
        return True

    # ------------------------------------------------------------------
    # Static analysis
    # ------------------------------------------------------------------
    def is_satisfiable(self) -> bool:
        """Can *some* attribute tuple satisfy the conjunction?

        Per-attribute interval reasoning; numeric and string domains are
        treated as dense (documented simplification — query constants in
        all paper workloads are labels or years, where this is exact).
        """
        try:
            return self._sat
        except AttributeError:
            pass
        by_attribute: dict[str, list[tuple[str, Any]]] = {}
        for attribute, op, constant in self.atoms:
            by_attribute.setdefault(attribute, []).append((op, constant))
        verdict = all(_atoms_satisfiable(atom_list) for atom_list in by_attribute.values())
        object.__setattr__(self, "_sat", verdict)
        return verdict

    def subsumes(self, other: "AttributePredicate") -> bool:
        """The paper's ``self ⊢ other`` check (self is the more specific).

        For each atom ``A op a1`` in ``other`` there must be an atom
        ``A op a2`` in ``self`` with the same operator such that (a) for
        ``<=, <``: ``a2 <= a1``; (b) for ``>=, >``: ``a2 >= a1``; (c) for
        ``=, !=``: ``a1 = a2``.  Every tuple matching ``self`` then matches
        ``other``.
        """
        own_atoms = self.atoms
        for attribute, op, constant in other.atoms:
            for own_attribute, own_op, own_constant in own_atoms:
                if (
                    own_attribute == attribute
                    and own_op == op
                    and _subsumption_compatible(op, own_constant, constant)
                ):
                    break
            else:
                return False
        return True

    def canonical(self) -> tuple[tuple[tuple[str, str, str, str], ...], str]:
        """Sorted, type-tagged atoms (``5`` and ``"5"`` differ) and their JSON text.

        The one canonical rendering every fingerprint of
        :mod:`repro.query.serialize` is built from.
        """
        try:
            return self._canonical
        except AttributeError:
            pass
        atoms = tuple(sorted((a, op, type(c).__name__, repr(c)) for a, op, c in self.atoms))
        rendered = atoms, _COMPACT_JSON.encode(atoms)
        object.__setattr__(self, "_canonical", rendered)
        return rendered

    def conjoin(self, other: "AttributePredicate") -> "AttributePredicate":
        """The conjunction of two predicates."""
        return AttributePredicate(self.atoms + other.atoms)

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        return isinstance(other, AttributePredicate) and set(self.atoms) == set(other.atoms)

    def __hash__(self) -> int:
        return hash(frozenset(self.atoms))

    def __repr__(self) -> str:
        if not self.atoms:
            return "AttributePredicate(*)"
        inner = " & ".join(f"{a} {op} {c!r}" for a, op, c in self.atoms)
        return f"AttributePredicate({inner})"


#: atom list key → the live predicate built from it (:func:`shared_predicate`).
_SHARED: WeakValueDictionary = WeakValueDictionary()
_STR = frozenset({str})
_SCALARS = frozenset({str, int, float, bool, type(None)})


def pinned_label_atom(predicate: AttributePredicate) -> int | None:
    """Position of the first ``label = c`` atom whose label posting is
    exactly its match set, or None: the one rule by which the candidate
    scan reads a posting, the logical plan names a ``label-index`` source
    and the cost model estimates from a posting length.

    ``c`` must not be None (a None label has no posting) and must equal
    itself: NaN keys a posting by identity yet equals no label, not even
    its own.  Cached on the predicate, so a shared one is asked once.
    """
    try:
        return predicate._pin
    except AttributeError:
        pass
    position = next(
        (
            position
            for position, (attribute, op, constant) in enumerate(predicate.atoms)
            if attribute == "label" and op == "=" and constant is not None and constant == constant
        ),
        None,
    )
    object.__setattr__(predicate, "_pin", position)
    return position


def atom_key(atoms: Iterable[Sequence[Any]]) -> tuple[tuple, tuple | None]:
    """``atoms`` as tuples, and the key :func:`shared_predicate` shares
    their predicate under — None when it is not shared.

    Equal keys must mean equal :meth:`~AttributePredicate.canonical`
    texts, because every fingerprint embeds that text: ``1``, ``True``,
    ``1.0`` and ``"1"`` compare equal in a tuple, and so do ``0.0`` and
    ``-0.0``.  A list whose attributes, operators and constants are all
    ``str`` is its own key; one with other scalars is keyed by each
    value's type and ``repr``, as ``canonical()`` renders them; anything
    else is not shared.
    """
    atoms = tuple(map(tuple, atoms))
    types = {*map(type, chain.from_iterable(atoms))}
    if types <= _STR:
        return atoms, atoms
    if types <= _SCALARS:
        return atoms, tuple(tuple((type(value), repr(value)) for value in atom) for atom in atoms)
    return atoms, None


def shared_predicate(atoms: Iterable[Sequence[Any]]) -> AttributePredicate:
    """The predicate of ``atoms``, shared with every live predicate built
    here from the same atom list (the key rule is :func:`atom_key`'s).

    The table holds no predicate alive: an entry goes with the last query
    that holds its predicate.  Two threads that miss one key at once each
    build a predicate; the later entry wins, and either is correct.
    """
    return keyed_predicate(*atom_key(atoms))


def keyed_predicate(atoms: tuple, key: tuple | None) -> AttributePredicate:
    """:func:`shared_predicate` of atoms already split by :func:`atom_key`."""
    if key is None:
        return AttributePredicate(atoms)
    predicate = live(_SHARED, key)
    if predicate is None:
        predicate = AttributePredicate(atoms)
        # Keyed by the predicate's own atoms where they are the key, so
        # the entry adds no tuples of its own.
        _SHARED[predicate.atoms if predicate.atoms == key else key] = predicate
    return predicate


def live(table: WeakValueDictionary, key):
    """The live value under ``key`` in a weak table, or None.  Read from
    the table's own dict: ``WeakValueDictionary.get`` raises and catches
    a KeyError on every miss, and a new query's probes mostly miss."""
    ref = table.data.get(key)
    return None if ref is None else ref()


def _subsumption_compatible(op: str, specific: Any, general: Any) -> bool:
    try:
        return _COMPATIBLE[op](specific, general)
    except TypeError:
        return False


def subsumer_rows(predicates: Sequence[AttributePredicate]) -> list[int]:
    """``fa(v) ⊢ fa(u)`` for every ordered pair of ``predicates``: per
    ``u``, the bit mask of the ``v`` (bit ``i`` is ``predicates[i]``).

    The condition of :meth:`AttributePredicate.subsumes`, asked per atom
    instead of per pair: the predicates covering an atom ``A op a1`` of
    ``fa(u)`` are those holding an atom ``A op a2`` with a compatible
    constant, and ``fa(u)`` is subsumed by the predicates covering all of
    its atoms.  Each atom is compared with the atoms of its attribute and
    operator only, not with every atom of every other predicate; and
    where compatible means equal (``=``, ``!=``), a ``str`` constant is
    looked up among the ``str`` constants instead of compared with each.
    """
    held: dict[tuple[str, str], list[tuple[Any, int]]] = {}
    exact: dict[tuple[str, str], dict[str, int]] = {}
    for position, fa in enumerate(predicates):
        bit = 1 << position
        for attribute, op, constant in fa.atoms:
            if type(constant) is str and op in _BY_VALUE:
                bits = exact.setdefault((attribute, op), {})
                bits[constant] = bits.get(constant, 0) | bit
            else:
                held.setdefault((attribute, op), []).append((constant, bit))
    everyone = (1 << len(predicates)) - 1
    rows = []
    for fa in predicates:
        row = everyone
        for attribute, op, general in fa.atoms:
            group = (attribute, op)
            by_value = exact.get(group, _NO_BITS)
            if type(general) is str and op in _BY_VALUE:
                covering = by_value.get(general, 0)
                candidates: Iterable[tuple[Any, int]] = held.get(group, ())
            else:
                covering = 0
                candidates = chain(held.get(group, ()), by_value.items())
            compatible = _COMPATIBLE[op]
            for specific, bit in candidates:
                try:
                    if compatible(specific, general):
                        covering |= bit
                except TypeError:
                    pass  # incomparable constants never subsume
            row &= covering
        rows.append(row)
    return rows


def _atoms_satisfiable(atoms: list[tuple[str, Any]]) -> bool:
    """Interval consistency of one attribute's constraints."""
    pinned: list[Any] = [c for op, c in atoms if op == "="]
    if pinned:
        value = pinned[0]
        if any(value != other for other in pinned[1:]):
            return False
        return all(_compare(value, op, c) for op, c in atoms if op != "=")

    lower: Any = None
    lower_strict = False
    upper: Any = None
    upper_strict = False
    excluded: list[Any] = []
    for op, constant in atoms:
        if op in (">", ">="):
            strict = op == ">"
            try:
                replace = (
                    lower is None
                    or constant > lower
                    or (constant == lower and strict and not lower_strict)
                )
            except TypeError:
                return False
            if replace:
                lower, lower_strict = constant, strict
        elif op in ("<", "<="):
            strict = op == "<"
            try:
                replace = (
                    upper is None
                    or constant < upper
                    or (constant == upper and strict and not upper_strict)
                )
            except TypeError:
                return False
            if replace:
                upper, upper_strict = constant, strict
        elif op == "!=":
            excluded.append(constant)
    if lower is not None and upper is not None:
        try:
            if lower > upper:
                return False
            if lower == upper:
                if lower_strict or upper_strict:
                    return False
                # Interval is the single point `lower`.
                return all(lower != bad for bad in excluded)
        except TypeError:
            return False
    # Dense-domain assumption: a non-degenerate interval (or half-line)
    # always contains a point avoiding finitely many exclusions.
    return True
