"""Shared session fixtures for the benchmark suite.

Dataset generation and index construction happen once per session; the
benchmarks measure query processing only, as the paper does.

Scale note: the paper sweeps XMark scaling
factors 0.5–4 with C++-era implementations; this pure-Python benchmark
sweeps the same 1:2:3:4:8 ladder at smaller absolute sizes.
"""

from __future__ import annotations

import gc
import pathlib

import pytest

from repro.bench import AlgorithmSuite
from repro.datasets import generate_arxiv, generate_xmark

REPORT_DIR = pathlib.Path(__file__).parent / "reports"


def pytest_collection_modifyitems(items):
    """Everything under benchmarks/ carries the ``bench`` marker.

    The default addopts deselect ``bench``-marked tests; run the suite
    explicitly with ``pytest benchmarks -m bench``.
    """
    for item in items:
        item.add_marker(pytest.mark.bench)


@pytest.fixture(autouse=True)
def collected_heap():
    """Start every figure from a collected heap, as the end-to-end rounds
    do: otherwise a full collection of what earlier modules left behind
    (≈ 140 ms with the arXiv suite alive) lands inside whichever single
    measured query crosses the collector's threshold."""
    gc.collect()


def emit_report(name: str, text: str) -> None:
    """Print a paper-style table and persist it under benchmarks/reports/."""
    print()
    print(text)
    REPORT_DIR.mkdir(exist_ok=True)
    (REPORT_DIR / f"{name}.txt").write_text(text + "\n")

#: the 1 : 2 : 3 : 4 : 8 scaling ladder of the paper's Table 1.
XMARK_SCALES = (0.025, 0.05, 0.075, 0.1, 0.2)


def _cross_children_of(query):
    """Reference children present in a Fig. 7 / Fig. 11 query.

    Ref targets: ``person``/``person2`` everywhere, ``item`` in Fig. 7
    naming (its parent is the ``item_ref`` element) and ``item_elem`` in
    Fig. 11 naming (where ``item`` *is* the ref element).
    """
    crosses = set()
    if "person" in query.parent:
        crosses.add("person")
    if "person2" in query.parent:
        crosses.add("person2")
    if "item_elem" in query.parent:
        crosses.add("item_elem")
    if query.parent.get("item") == "item_ref":
        crosses.add("item")
    return crosses


@pytest.fixture(scope="session")
def xmark_datasets():
    """XMark-like graphs for every scale on the ladder."""
    return {
        scale: generate_xmark(scale=scale, seed=97) for scale in XMARK_SCALES
    }


@pytest.fixture(scope="session")
def xmark_suites(xmark_datasets):
    """Algorithm suites (indexes pre-built) per XMark scale."""
    return {
        scale: AlgorithmSuite(
            dataset.graph,
            forest_edges=dataset.forest_edges,
            cross_children_of=_cross_children_of,
        )
        for scale, dataset in xmark_datasets.items()
    }


@pytest.fixture(scope="session")
def xmark_small(xmark_suites):
    return xmark_suites[XMARK_SCALES[0]]


@pytest.fixture(scope="session")
def xmark_mid(xmark_suites):
    return xmark_suites[XMARK_SCALES[2]]


@pytest.fixture(scope="session")
def xmark_large(xmark_suites):
    return xmark_suites[XMARK_SCALES[-1]]


@pytest.fixture(scope="session")
def arxiv_dataset():
    """The arXiv-like graph at reduced scale (full stats are tested in
    tests/; benchmarks use a size that keeps the whole suite fast)."""
    return generate_arxiv(
        num_papers=2400,
        num_authors=470,
        num_paper_labels=300,
        num_author_labels=40,
        seed=97,
    )


@pytest.fixture(scope="session")
def arxiv_suite(arxiv_dataset):
    return AlgorithmSuite(arxiv_dataset.graph)
