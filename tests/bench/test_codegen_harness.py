"""Tier-1 coverage of the plan-codegen harness and CLI path.

The heavyweight comparison lives in ``benchmarks/bench_codegen.py``
(bench marker); these tests run the same machinery at a tiny scale so
``measure_codegen`` and the ``repro-bench codegen`` subcommand stay
covered by the default suite.
"""

from repro.bench import CodegenMeasurement, CodegenQueryPoint, measure_codegen
from repro.bench.cli import main as bench_main
from repro.datasets import fig7_query, generate_xmark


def tiny_workload():
    return [
        (variant, fig7_query(variant, person_group=2, item_group=4, seller_group=6))
        for variant in ("q1", "q2")
    ]


class TestMeasureCodegen:
    def test_small_xmark_workload_compiles_and_agrees(self):
        graph = generate_xmark(scale=0.02, seed=97).graph
        measurement = measure_codegen(graph, tiny_workload(), rounds=3)
        assert measurement.mismatches == 0
        assert measurement.uncompiled == 0
        assert len(measurement.points) == 2
        rows = measurement.rows()
        assert [row["query"] for row in rows] == ["q1", "q2"]
        assert all(row["codegen_ms"] > 0 for row in rows)

    def test_aggregate_speedup_handles_zero_denominator(self):
        empty = CodegenMeasurement(points=[], mismatches=0, uncompiled=0)
        assert empty.speedup == 0.0
        degenerate = CodegenQueryPoint(name="q", interpreted_ms=1.0, codegen_ms=0.0, results=0)
        assert degenerate.speedup == 0.0

    def test_aggregate_speedup_is_total_over_total(self):
        measurement = CodegenMeasurement(
            points=[
                CodegenQueryPoint(name="a", interpreted_ms=3.0, codegen_ms=1.0, results=1),
                CodegenQueryPoint(name="b", interpreted_ms=1.0, codegen_ms=1.0, results=0),
            ],
            mismatches=0,
            uncompiled=0,
        )
        assert measurement.speedup == 2.0


class TestCodegenCli:
    def test_codegen_subcommand_runs(self, capsys):
        code = bench_main(["--scale", "0.02", "codegen", "--rounds", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "aggregate warm speedup" in out
        assert "interpreted_ms" in out

    def test_codegen_subcommand_rejects_bad_rounds(self, capsys):
        code = bench_main(["--scale", "0.02", "codegen", "--rounds", "0"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_codegen_subcommand_enforces_an_unreachable_floor(self, capsys):
        code = bench_main(
            ["--scale", "0.02", "codegen", "--rounds", "2", "--enforce-floor", "--floor", "1e9"]
        )
        assert code == 1
        assert "below the floor" in capsys.readouterr().err
