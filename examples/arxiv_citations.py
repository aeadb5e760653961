#!/usr/bin/env python3
"""Citation-graph patterns over the arXiv-like dataset (paper Sec. 5.2).

Random "meaningful" tree patterns are sampled from the graph itself (so
they have nonempty answers) and classified into small/large result
groups, reproducing the Section 5.2 query-generation protocol.  GTEA is
then compared against TwigStackD on one query per group.

Run:  python examples/arxiv_citations.py
"""

import time

from repro.baselines import TwigStackD
from repro.datasets import generate_arxiv, generate_query_groups
from repro.engine import GTEA
from repro.graph import depth_stats, graph_stats

arxiv = generate_arxiv(num_papers=1500, num_authors=300, seed=23)
stats = graph_stats(arxiv.graph)
max_depth, _ = depth_stats(arxiv.graph)
print(
    f"arXiv-like graph: {stats.num_nodes} nodes, {stats.num_edges} edges, "
    f"{stats.num_labels} labels, max depth {max_depth}"
)

engine = GTEA(arxiv.graph)
groups = generate_query_groups(
    arxiv.graph,
    sizes=(5, 7),
    queries_per_size=3,
    small_range=(2, 50),
    large_range=(51, 5000),
    seed=3,
    engine=engine,
)

for group_name, by_size in groups.items():
    print(f"\n--- {group_name}-result group ---")
    for size, queries in by_size.items():
        for generated in queries[:1]:
            started = time.perf_counter()
            gtea_answer = engine.evaluate(generated.query)
            gtea_ms = (time.perf_counter() - started) * 1000

            started = time.perf_counter()
            twig_answer = TwigStackD(arxiv.graph).evaluate(generated.query)
            twig_ms = (time.perf_counter() - started) * 1000

            assert gtea_answer == twig_answer
            print(
                f"  size {size:2d}: {generated.result_size:5d} results | "
                f"GTEA {gtea_ms:8.2f} ms | TwigStackD {twig_ms:8.2f} ms"
            )

print("\nOK: GTEA and TwigStackD agree on all sampled citation queries.")
