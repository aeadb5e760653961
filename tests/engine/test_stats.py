"""EvaluationStats aggregation: every counter of the dataclass merges."""

import dataclasses

from repro.engine import EvaluationStats


def int_fields():
    return [
        spec.name
        for spec in dataclasses.fields(EvaluationStats)
        if isinstance(getattr(EvaluationStats(), spec.name), int)
    ]


def ones():
    stats = EvaluationStats()
    for name in int_fields():
        setattr(stats, name, 1)
    return stats


def test_every_int_counter_aggregates():
    # A counter added to the dataclass is summed without being listed
    # anywhere; the one exception is the evaluation count (a single
    # evaluation reads as one, so two aggregated ones read as two).
    total = EvaluationStats.aggregate([ones(), ones()])
    expected = dict.fromkeys(int_fields(), 2)
    assert {name: getattr(total, name) for name in int_fields()} == expected
    assert len(expected) >= 20


def test_an_unaggregated_evaluation_counts_as_one():
    total = EvaluationStats.aggregate([EvaluationStats(), EvaluationStats()])
    assert total.evaluations == 2
    assert all(getattr(total, name) == 0 for name in int_fields() if name != "evaluations")


def test_dict_and_list_fields_keep_their_rules():
    left, right = EvaluationStats(), EvaluationStats()
    left.phase_seconds = {"prune_downward": 1.0}
    right.phase_seconds = {"prune_downward": 0.5, "candidates": 0.25}
    right.candidates_initial = {"u": 3}
    right.operator_stats = ["record"]
    left.merge(right)
    assert left.phase_seconds == {"prune_downward": 1.5, "candidates": 0.25}
    # Per-query-node breakdowns and operator records do not aggregate.
    assert left.candidates_initial == {} and left.operator_stats == []
