"""Property-based tests pinning attribute-predicate semantics.

Two soundness obligations used throughout Section 3:

* ``is_satisfiable`` — if any concrete tuple matches, the predicate must
  be declared satisfiable (no false negatives);
* ``subsumes`` (the paper's ``⊢``) — if ``p.subsumes(q)`` then every
  tuple matching ``p`` matches ``q``; ``subsumer_rows`` asks it of
  every ordered pair of a query's predicates at once.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.query import AttributePredicate
from repro.query.attribute import subsumer_rows

_ATTRS = ["a", "b"]
_OPS = ["<", "<=", "=", "!=", ">", ">="]


def atoms(max_size=4):
    return st.lists(
        st.tuples(
            st.sampled_from(_ATTRS),
            st.sampled_from(_OPS),
            st.integers(min_value=-5, max_value=5),
        ),
        max_size=max_size,
    )


def tuples_strategy():
    return st.dictionaries(
        st.sampled_from(_ATTRS),
        st.one_of(
            st.integers(min_value=-6, max_value=6),
            st.floats(min_value=-6, max_value=6, allow_nan=False),
        ),
        min_size=len(_ATTRS),
        max_size=len(_ATTRS),
    )


@settings(max_examples=300, deadline=None)
@given(atoms(), tuples_strategy())
def test_matching_tuple_implies_satisfiable(atom_list, candidate):
    predicate = AttributePredicate(atom_list)
    if predicate.matches(candidate):
        assert predicate.is_satisfiable(), (
            f"{predicate!r} matched {candidate} but was declared unsat"
        )


@settings(max_examples=200, deadline=None)
@given(atoms())
def test_unsatisfiable_predicates_match_nothing(atom_list):
    predicate = AttributePredicate(atom_list)
    if not predicate.is_satisfiable():
        # Exhaustive-ish probe over a grid of integer tuples.
        for a in range(-6, 7):
            for b in range(-6, 7):
                assert not predicate.matches({"a": a, "b": b})


@settings(max_examples=300, deadline=None)
@given(atoms(), atoms(), tuples_strategy())
def test_subsumption_is_semantic_implication(left_atoms, right_atoms, candidate):
    left = AttributePredicate(left_atoms)
    right = AttributePredicate(right_atoms)
    if left.subsumes(right) and left.matches(candidate):
        assert right.matches(candidate), (
            f"{left!r} ⊢ {right!r} but {candidate} separates them"
        )


@settings(max_examples=150, deadline=None)
@given(atoms())
def test_subsumption_reflexive(atom_list):
    predicate = AttributePredicate(atom_list)
    assert predicate.subsumes(predicate)


@settings(max_examples=150, deadline=None)
@given(atoms(), atoms())
def test_conjoin_strengthens(left_atoms, right_atoms):
    left = AttributePredicate(left_atoms)
    right = AttributePredicate(right_atoms)
    joined = left.conjoin(right)
    assert joined.subsumes(left)
    assert joined.subsumes(right)


#: constants that compare equal in a tuple (or are NaN) but are not the
#: same value: a ``str`` is looked up among ``str`` constants, the rest
#: compared one by one.
_LOOKALIKES = [1, True, 1.0, "1", "a", "b", 0, False, -0.0, None, float("nan"), 2.5]


@given(
    st.lists(
        st.lists(
            st.tuples(
                st.sampled_from(["label", "a"]),
                st.sampled_from(_OPS),
                st.sampled_from(_LOOKALIKES),
            ),
            max_size=3,
        ),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=300, deadline=None)
def test_subsumer_rows_ask_subsumes_of_every_pair(atom_lists):
    predicates = [AttributePredicate(atom_list) for atom_list in atom_lists]
    rows = subsumer_rows(predicates)
    for u, general in enumerate(predicates):
        for v, specific in enumerate(predicates):
            assert bool(rows[u] >> v & 1) == specific.subsumes(general)
