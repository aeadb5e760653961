"""Structural analysis of GTPQs (paper Section 3.1).

Implements the derived predicates the decision procedures are built from:

* **independently-constraint nodes** — nodes whose variable can actually
  influence their parent's (extended) structural predicate, recursively;
* **transitive structural predicate** ``ftr(u)`` — ``fext(u)`` with every
  independent child variable ``p_c`` replaced by ``p_c ∧ ftr(c)``;
* **similarity** ``u1 ⊳ u2`` and **subsumption** ``u1 ⊴ u2``;
* **complete structural predicate** ``fcs(u)`` — ``ftr(u)`` adjusted for
  unsatisfiable attribute predicates and cross-subtree subsumption.

Attribute predicates are read only through the query's
:class:`~repro.query.gtpq.PredicateRelation` (satisfiability of
``fa(u)`` and ``fa(v) ⊢ fa(u)``), asked once per query.

Two readings (docs/ARCHITECTURE.md, Layer 2, "What compile computes"):

* the independence XOR test is evaluated on ``fext(parent)`` (the paper
  prints ``fs``, under which backbone nodes could never be independent);
* ``ftr`` substitutes into ``fext(u)`` — this is what the paper's own
  Example 4 computes ("replacing ... in fext(u3)").
"""

from __future__ import annotations

from itertools import product
from typing import Callable

from ..logic import (
    TRUE,
    Formula,
    Var,
    entails,
    essential_variables,
    is_satisfiable,
    land,
    lnot,
    lor,
    rename,
    simplify,
    substitute,
)
from ..query.gtpq import GTPQ, EdgeType


class QueryAnalysis:
    """Cached structural analysis of one query.

    All derived predicates are computed lazily and memoized; the underlying
    query must not be mutated (GTPQs are treated as immutable throughout).
    """

    def __init__(self, query: GTPQ):
        self.query = query
        self._independent: set[str] | None = None
        self._ftr: dict[str, Formula] = {}
        self._fcs: dict[str, Formula] = {}
        self._similar: dict[tuple[str, str], bool] = {}
        self._pairs: list[tuple[str, str]] | None = None
        self._heights: dict[str, int] | None = None

    # ------------------------------------------------------------------
    # Independently-constraint nodes
    # ------------------------------------------------------------------
    @property
    def independent_nodes(self) -> set[str]:
        """Nodes whose variables can independently affect their ancestors.

        The root is independent iff its own structural predicate is
        satisfiable; a non-root ``u`` with parent ``w`` is independent iff
        ``w`` is and ``(fext(w)[p_u/1] XOR fext(w)[p_u/0]) AND fs(u)`` is
        satisfiable.  The two conjuncts share no variable (``fext(w)``
        ranges over w's children, ``fs(u)`` over u's), so each is decided on
        its own: the XOR for all children of ``w`` from one truth table of
        ``fext(w)`` (:func:`~repro.logic.sat.essential_variables`).
        """
        if self._independent is None:
            query = self.query
            independent: set[str] = set()
            if is_satisfiable(query.fs(query.root)):
                independent.add(query.root)
            for node_id in query.depth_first():  # parents before children
                if node_id not in independent or query.is_leaf(node_id):
                    continue
                matters = essential_variables(query.fext(node_id))
                for child_id in query.children[node_id]:
                    if child_id in matters and is_satisfiable(query.fs(child_id)):
                        independent.add(child_id)
            self._independent = independent
        return self._independent

    # ------------------------------------------------------------------
    # Transitive structural predicates
    # ------------------------------------------------------------------
    def ftr(self, node_id: str) -> Formula:
        """``ftr(u)``: the subtree's structural constraints, flattened."""
        if node_id in self._ftr:
            return self._ftr[node_id]
        query = self.query
        independent = self.independent_nodes
        if query.is_leaf(node_id) or node_id not in independent:
            result = query.fext(node_id)
        else:
            # ``p_c & 1`` is ``p_c``: a child with nothing below it binds to
            # itself.  Both calls rebuild ``fext`` through the smart
            # constructors, so substituting leaves nothing to simplify.
            below = {c: self.ftr(c) for c in query.children[node_id] if c in independent}
            bindings = {c: land(Var(c), f) for c, f in below.items() if f != TRUE}
            fext = query.fext(node_id)
            result = substitute(fext, bindings) if bindings else simplify(fext)
        self._ftr[node_id] = result
        return result

    # ------------------------------------------------------------------
    # Similarity and subsumption
    # ------------------------------------------------------------------
    def _height(self, node_id: str) -> int:
        if self._heights is None:
            heights: dict[str, int] = {}
            for nid in self.query.bottom_up():
                children = self.query.children[nid]
                heights[nid] = 1 + max((heights[c] for c in children), default=-1)
            self._heights = heights
        return self._heights[node_id]

    def similar(self, u1: str, u2: str) -> bool:
        """``u1 ⊳ u2`` — "u2 is similar to u1" (u2 at least as constrained).

        Conditions (Section 3.1): attribute subsumption ``u2 ⊢ u1``;
        recursive embedding of u1's independent children into u2's subtree
        (PC children to PC children, AD children to any descendant); and
        ``ftr(u2) -> ftr(u1)[renamed]`` a tautology, with variables of u1's
        descendants renamed along the subsumption mapping.
        """
        if u1 == u2:
            return True
        key = (u1, u2)
        if key in self._similar:
            return self._similar[key]
        # Guard against pathological recursion; pairs are computed on
        # demand, deeper (smaller-height) pairs resolve first.
        self._similar[key] = False
        result = self._similar_uncached(u1, u2)
        self._similar[key] = result
        return result

    def _similar_uncached(self, u1: str, u2: str) -> bool:
        query = self.query
        if not query.relation().subsumes(u2, u1):
            return False
        independent = self.independent_nodes
        u2_descendants = [n for n in query.subtree_nodes(u2) if n != u2]
        for child in query.children[u1]:
            if child not in independent:
                continue
            if query.edge_type(child) is EdgeType.CHILD:
                candidates = [
                    c
                    for c in query.children[u2]
                    if query.edge_type(c) is EdgeType.CHILD and self.similar(child, c)
                ]
            else:
                candidates = [d for d in u2_descendants if self.similar(child, d)]
            if not candidates:
                return False
        return self._ftr_implication(u1, u2)

    def _ftr_implication(self, u1: str, u2: str) -> bool:
        """``ftr(u2) -> ftr(u1)[u1 |-> u2]`` for some subsumption renaming."""
        query = self.query
        ftr_u1 = self.ftr(u1)
        ftr_u2 = self.ftr(u2)
        u1_descendants = [n for n in query.subtree_nodes(u1) if n != u1]
        u2_descendants = [n for n in query.subtree_nodes(u2) if n != u2]
        relevant = [d for d in u1_descendants if d in ftr_u1.variables()]
        choices: list[list[str | None]] = []
        for descendant in relevant:
            # The renaming follows the recursive similarity embedding: the
            # paper's Example 4 renames u4 -> u7 inside the u2 ⊳ u6 check
            # even though the top-level ⊴ lca-condition fails for the pair.
            options: list[str | None] = [
                d2 for d2 in u2_descendants if self.similar(descendant, d2)
            ]
            if not options:
                options = [None]  # keep the original variable name
            choices.append(options)
        total = 1
        for options in choices:
            total *= len(options)
        if total > 256:
            # Cap the search; fall back to first-choice greedy (documented
            # heuristic — paper leaves the renaming choice unspecified).
            choices = [options[:1] for options in choices]
        for combination in product(*choices):
            mapping = {old: new for old, new in zip(relevant, combination) if new is not None}
            if entails(ftr_u2, rename(ftr_u1, mapping)):
                return True
        return False

    def subsumed(self, u1: str, u2: str) -> bool:
        """``u1 ⊴ u2`` — u1 is subsumed by u2 (Section 3.1).

        Requires ``u1 ⊳ u2``, the parent of u1 to be the lowest common
        ancestor of the pair, and position compatibility: a PC child u1
        demands u2 to be a PC child of the same parent, an AD child just
        demands u2 below the lca.
        """
        query = self.query
        if u1 == u2 or u1 == query.root or u2 == query.root:
            return False
        lca = self.lowest_common_ancestor(u1, u2)
        if query.parent[u1] != lca:
            return False
        if query.edge_type(u1) is EdgeType.CHILD:
            if not (query.parent.get(u2) == lca and query.edge_type(u2) is EdgeType.CHILD):
                return False
        if not self.similar(u1, u2):
            return False
        return True

    def lowest_common_ancestor(self, u1: str, u2: str) -> str:
        """Walk the deeper node up to the other's depth, then both in step."""
        parent, depths = self.query.parent, self.query.depths()
        gap = depths[u1] - depths[u2]
        for _ in range(gap):
            u1 = parent[u1]
        for _ in range(-gap):
            u2 = parent[u2]
        while u1 != u2:
            u1, u2 = parent[u1], parent[u2]
        return u1

    def subsumption_pairs(self) -> list[tuple[str, str]]:
        """All pairs ``(a, b)`` with ``a ⊴ b`` and divergent subtrees.

        Cheapest test first: attribute subsumption ``fa(b) ⊢ fa(a)`` is a
        precondition of ``a ⊳ b``, hence of ``a ⊴ b``, and rejects nearly
        every pair before any ancestor walk or similarity recursion.
        """
        if self._pairs is not None:
            return self._pairs
        query = self.query
        relation = query.relation()
        subsumers, bit = relation.subsumers, relation.bit
        pairs: list[tuple[str, str]] = []
        others = [n for n in query.nodes if n != query.root]
        for a in others:
            above = subsumers[a]
            for b in others:
                if a == b or not above & bit[b]:
                    continue
                if self.lowest_common_ancestor(a, b) in (a, b):
                    continue  # same path, not distinct subtrees
                if self.subsumed(a, b):
                    pairs.append((a, b))
        self._pairs = pairs
        return pairs

    # ------------------------------------------------------------------
    # Complete structural predicates
    # ------------------------------------------------------------------
    def fcs(self, node_id: str) -> Formula:
        """``fcs(u)``: ``ftr(u)`` adjusted by the two operations of Sec 3.1.

        (1) variables of descendants with unsatisfiable attribute
        predicates are forced to 0; (2) for every subsumption pair
        ``a ⊴ b`` diverging inside u's subtree, conjoin
        ``!p_b | (p_a & fext(a))``.
        """
        if node_id in self._fcs:
            return self._fcs[node_id]
        query = self.query
        result = self.ftr(node_id)
        subtree = set(query.subtree_nodes(node_id))
        satisfiable = query.relation().satisfiable
        unsat = {d: False for d in subtree if d != node_id and not satisfiable[d]}
        if unsat:
            result = substitute(result, unsat)
        # "Two distinct subtrees of u": the pair diverges exactly at u (its
        # lca is u).  Pairs diverging deeper belong to the fcs of the
        # deeper node — this scoping reproduces the paper's Example 4
        # formulas, and deeper pairs' clauses are semantically valid
        # implications that cannot change satisfiability.
        for a, b in self.subsumption_pairs():
            if a in subtree and b in subtree:
                if self.lowest_common_ancestor(a, b) == node_id:
                    clause = lor(lnot(Var(b)), land(Var(a), query.fext(a)))
                    result = land(result, clause)
        result = self._fcs[node_id] = simplify(result)
        return result


class AnalysisContext:
    """Everything derived from the queries met during one decision.

    One ``normalize()`` / ``is_contained()`` call looks at the same few
    immutable :class:`GTPQ` objects again and again — the satisfiability
    check, every minimization pass, both directions of every Theorem-3
    guard.  The context holds one :class:`QueryAnalysis` per query object
    and the outcome of each rewriting pass over it, so each is computed
    once per call.  Keys are the query *objects* (identity): the context
    keeps them alive, lives for one call and is then dropped — nothing is
    cached per module and no analysis is attached to a query.
    """

    def __init__(self):
        self._analyses: dict[GTPQ, QueryAnalysis] = {}
        self._rewrites: dict[tuple[Callable, GTPQ], GTPQ] = {}

    def analysis(self, query: GTPQ) -> QueryAnalysis:
        analysis = self._analyses.get(query)
        if analysis is None:
            analysis = self._analyses[query] = QueryAnalysis(query)
        return analysis

    def once(self, rewrite: Callable[[GTPQ, "AnalysisContext"], GTPQ], query: GTPQ) -> GTPQ:
        """``rewrite(query, self)``, computed once per query object."""
        key = (rewrite, query)
        result = self._rewrites.get(key)
        if result is None:
            result = self._rewrites[key] = rewrite(query, self)
        return result
