#!/usr/bin/env python3
"""Serving: a query server behind its JSON-lines TCP front, in-process.

Starts ``serve_tcp`` on an ephemeral localhost port over a small XMark
graph and sends four request lines in one write from one client: a query
(a miss, evaluated in the server's thread), the same query again (a
result-cache hit, answered on the event loop), the query with its
bidders grouped per auction, and a line that is no request.  The replies
come back in request order, one line each.

Run:  python examples/serving.py
"""

import asyncio
import json

from repro.datasets import generate_xmark
from repro.query import QueryBuilder, query_to_json
from repro.serve import QueryServer, serve_tcp

query = (
    QueryBuilder()
    .backbone("auction", label="open_auction")
    .backbone("bidder", parent="auction", label="bidder")
    .outputs("auction", "bidder")
    .build()
)
text = query_to_json(query)
requests = [
    {"query": text},
    {"query": text},
    {"query": text, "group_nodes": ["bidder"]},
]


async def main():
    graph = generate_xmark(scale=0.02, seed=42).graph
    server = QueryServer(graph)
    tcp = await serve_tcp(server, host="127.0.0.1", port=0)
    port = tcp.sockets[0].getsockname()[1]
    print(f"serving {graph.num_nodes} nodes on 127.0.0.1:{port}")
    reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=2**20)
    lines = [json.dumps(request) + "\n" for request in requests] + ["not json\n"]
    writer.write("".join(lines).encode())  # pipelined: one write, four requests
    for label in ("miss", "hit", "grouped", "malformed"):
        reply = json.loads(await reader.readline())
        if reply["ok"]:
            print(f"  {label:<9} {reply['count']:4d} rows, first {reply['results'][:2]}")
        else:
            print(f"  {label:<9} error: {reply['error']}")
    writer.close()
    await writer.wait_closed()
    tcp.close()
    await tcp.wait_closed()
    await server.stop()
    print(f"server stats: {server.stats.summary()}")


asyncio.run(main())
