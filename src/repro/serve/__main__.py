"""``python -m repro.serve`` — TCP JSON-lines front over an XMark graph.

Demo/ops entry point: builds the deterministic XMark graph for
``--scale``/``--seed`` (the same generator the benchmarks use, so a
warm store written by a session over that graph matches by content
fingerprint), starts a :class:`~repro.serve.QueryServer` and serves
until interrupted; with ``--store`` it persists the warmest worker's
artifacts on the way out.
"""

from __future__ import annotations

import argparse
import asyncio
import gc

from ..datasets import generate_xmark
from .server import QueryServer, serve_tcp


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8765)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--scale", type=float, default=0.05, help="XMark scale factor")
    parser.add_argument("--seed", type=int, default=42, help="XMark generator seed")
    parser.add_argument("--store", default=None, help="warm-store directory to share")
    return parser


async def _run(args) -> None:
    graph = generate_xmark(scale=args.scale, seed=args.seed).graph
    server = QueryServer(graph, workers=args.workers, store=args.store)
    await server.start()
    # Graph, rehydrated caches and condensation stay for the life of the
    # process: keep the collector from walking them under the first
    # requests (whichever one a young collection happens to land in).
    gc.freeze()
    tcp = await serve_tcp(server, host=args.host, port=args.port)
    address = tcp.sockets[0].getsockname()
    print(f"serving on {address[0]}:{address[1]} with {args.workers} workers", flush=True)
    try:
        await tcp.serve_forever()
    finally:
        if args.store is not None:
            server.persist()
        await server.stop()


def main(argv=None) -> None:
    asyncio.run(_run(build_parser().parse_args(argv)))


if __name__ == "__main__":
    main()
