"""Fig. 8(a) — query processing time for Q1 while scaling the data.

The paper's headline chart: GTEA vs TwigStackD vs HGJoin+ vs TwigStack vs
Twig2Stack across five dataset scales.  Expected shape: GTEA fastest and
flattest; HGJoin+ degrades worst; TwigStackD competitive on this
tree-like data (the paper explains why in Section 5.1).
"""

import pytest

from repro.bench import format_table
from repro.datasets import fig7_query

from .conftest import XMARK_SCALES, emit_report

QUERY = lambda: fig7_query("q1", person_group=2, item_group=4, seller_group=6)
ALGORITHMS = ["GTEA", "TwigStackD", "HGJoin+", "HGJoin*", "TwigStack", "Twig2Stack"]


def test_fig8a_report(xmark_suites, benchmark):
    table: dict[str, list[float]] = {name: [] for name in ALGORITHMS}
    reference: dict[float, set] = {}

    def run_all():
        for name in ALGORITHMS:
            table[name].clear()
        for scale in XMARK_SCALES:
            suite = xmark_suites[scale]
            for name in ALGORITHMS:
                measurement = suite.run(name, QUERY())
                table[name].append(measurement.millis)
                expected = reference.setdefault(scale, measurement.answer)
                assert measurement.answer == expected, (
                    f"{name} disagrees at scale {scale}"
                )

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [[name, *table[name]] for name in ALGORITHMS]
    emit_report("fig8a_data_scaling", format_table(
        "Fig. 8(a): Q1 query processing time (ms) vs data scale",
        ["algorithm", *(f"scale {s}" for s in XMARK_SCALES)],
        rows,
    ))
    # Shape assertions (the claims that survive pure-Python constants —
    # see docs/BENCHMARKS.md, "Standing against HGJoin"): GTEA beats the
    # stack/pool-based algorithms at the largest scale.
    largest = {name: table[name][-1] for name in ALGORITHMS}
    assert largest["GTEA"] < largest["TwigStackD"]
    assert largest["GTEA"] < largest["TwigStack"]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_fig8a_largest_scale(xmark_large, algorithm, benchmark):
    query = QUERY()
    benchmark.pedantic(
        lambda: xmark_large.run(algorithm, query), rounds=3, iterations=1
    )
