"""``repro-bench`` — command-line front end: inspect a dataset or a plan.

Subcommands:

* ``stats`` — dataset statistics (Table 1 style) for a generated graph;
* ``explain`` — the compiled plan (normalize → logical → physical) of a
  paper workload query, or of a serialized GTPQ passed as JSON.

Measuring is not done here: the paper figures are the ``bench``-marked
pytest cases under ``benchmarks/`` and performance is
``benchmarks/e2e/`` (see ``docs/BENCHMARKS.md``).

Installed as a console script by ``pip install .``; run ``repro-bench
--help`` for options.
"""

from __future__ import annotations

import argparse
import sys

from ..datasets import fig7_query, generate_xmark
from ..engine import QuerySession
from ..graph import depth_stats, graph_stats
from ..reachability import available_indexes, resolve_index
from .harness import format_table


def _cmd_stats(args: argparse.Namespace) -> int:
    dataset = generate_xmark(scale=args.scale, seed=args.seed)
    stats = graph_stats(dataset.graph)
    max_depth, avg_depth = depth_stats(dataset.graph)
    row = {
        **stats.row(),
        "max_depth": max_depth,
        "avg_depth": round(avg_depth, 2),
        "auto_index": resolve_index(dataset.graph, "auto"),
    }
    print(format_table(
        f"XMark-like dataset, scale {args.scale}",
        list(row),
        [list(row.values())],
    ))
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    dataset = generate_xmark(scale=args.scale, seed=args.seed)
    session = QuerySession(dataset.graph, index=args.index)
    if args.query_json is not None:
        try:
            with open(args.query_json, encoding="utf-8") as handle:
                query = handle.read()
        except OSError as error:
            print(f"repro-bench: error: {error}", file=sys.stderr)
            return 2
    else:
        query = fig7_query(
            args.variant, person_group=2, item_group=4, seller_group=6
        )
    try:
        text = session.explain(query)
    except (ValueError, KeyError, TypeError) as error:
        print(f"repro-bench: error: cannot compile query: {error}", file=sys.stderr)
        return 2
    title = (
        f"compiled plan ({args.query_json or f'Fig. 7 {args.variant}'}, "
        f"XMark scale {args.scale}, index={args.index})"
    )
    print(title)
    print("-" * len(title))
    print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Dataset and plan inspection for the GTPQ/GTEA reproduction.",
    )
    parser.add_argument("--scale", type=float, default=0.05,
                        help="XMark scale factor (default 0.05)")
    parser.add_argument("--seed", type=int, default=97)
    subparsers = parser.add_subparsers(dest="command", required=True)

    stats = subparsers.add_parser("stats", help="dataset statistics")
    stats.set_defaults(func=_cmd_stats)

    explain = subparsers.add_parser(
        "explain", help="compiled plan of a query (normalize/logical/physical)"
    )
    explain.add_argument("--variant", default="q3", choices=["q1", "q2", "q3"],
                         help="Fig. 7 query variant (default: q3)")
    explain.add_argument("--index", default="auto",
                         choices=["auto", *available_indexes()],
                         help="reachability index name (default: auto)")
    explain.add_argument("--query-json", metavar="FILE",
                         help="explain a serialized GTPQ (JSON file) instead")
    explain.set_defaults(func=_cmd_explain)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
