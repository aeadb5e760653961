"""``subsumption_pairs`` against the exhaustive loop it replaced.

The production search tests attribute subsumption first and walks parent
chains by depth; the reference below is the loop it replaced, kept the way
``tests/engine/test_row_kernel.py`` keeps the per-pair loops: every ordered
pair goes through a set-built lowest common ancestor and then ``subsumed``.
Same pairs, same order, on every query of the normalize golden set (the
240 seeded ``random_query_batch`` GTPQs included) and on what ``normalize``
rewrites each of them to.
"""

from repro.analysis import QueryAnalysis
from repro.plan import normalize
from tests.plan.test_normalize_identity import all_cases


def reference_lca(query, u1, u2):
    path2 = set(query.path_to_root(u2))
    return next(n for n in query.path_to_root(u1) if n in path2)


def reference_pairs(query):
    analysis = QueryAnalysis(query)
    pairs = []
    for a in query.nodes:
        if a == query.root:
            continue
        for b in query.nodes:
            if a == b or b == query.root:
                continue
            if reference_lca(query, a, b) in (a, b):
                continue  # same path, not distinct subtrees
            if analysis.subsumed(a, b):
                pairs.append((a, b))
    return pairs


def _queries():
    for case_id, query in all_cases():
        yield case_id, query
        yield case_id + "/rewritten", normalize(query).rewritten


def test_same_pairs_in_the_same_order():
    cases = with_pairs = 0
    for case_id, query in _queries():
        expected = reference_pairs(query)
        assert QueryAnalysis(query).subsumption_pairs() == expected, case_id
        cases += 1
        with_pairs += bool(expected)
    assert cases >= 2 * 565
    assert with_pairs >= 20  # the comparison is not between empty lists


def test_ancestor_walk_matches_the_set_build():
    for case_id, query in all_cases():
        analysis = QueryAnalysis(query)
        for u1 in query.nodes:
            for u2 in query.nodes:
                expected = reference_lca(query, u1, u2)
                assert analysis.lowest_common_ancestor(u1, u2) == expected, case_id
