"""Benchmark support: the paper-figure suite and the ``repro-bench`` CLI."""

from .harness import AlgorithmSuite, Measurement, format_table, mean

__all__ = ["AlgorithmSuite", "Measurement", "format_table", "mean"]
