"""Dataset generators and paper workloads."""

from .arxiv import ArxivGraph, generate_arxiv
from .dblp import AUTHOR_POOL, DblpGraph, generate_dblp
from .random_queries import (
    GeneratedQuery,
    enclave_graph,
    index_choice_workload,
    generate_query_groups,
    random_embedded_query,
    random_labeled_graph,
    random_query_batch,
)
from .workloads import (
    FIG7_CROSS,
    FIG11_CROSS,
    TABLE3_OUTPUTS,
    TABLE4_PREDICATES,
    dblp_example_query,
    exp1_query,
    exp2_query,
    fig7_query,
    fig11_query,
)
from .xmark import NUM_GROUPS, XMarkGraph, generate_xmark, table1_row

__all__ = [
    "AUTHOR_POOL",
    "ArxivGraph",
    "DblpGraph",
    "FIG11_CROSS",
    "FIG7_CROSS",
    "GeneratedQuery",
    "NUM_GROUPS",
    "TABLE3_OUTPUTS",
    "TABLE4_PREDICATES",
    "XMarkGraph",
    "dblp_example_query",
    "exp1_query",
    "exp2_query",
    "fig11_query",
    "enclave_graph",
    "fig7_query",
    "generate_arxiv",
    "generate_dblp",
    "generate_query_groups",
    "generate_xmark",
    "index_choice_workload",
    "random_embedded_query",
    "random_labeled_graph",
    "random_query_batch",
    "table1_row",
]
