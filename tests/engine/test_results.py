"""The result layer (``repro.engine.results``): tuple rows over output
columns, the existence bit, the position map, the group column and
Appendix D structures.

Plain answers are checked against ``evaluate_naive``; grouped answers,
which the oracle does not produce, against the rows the earlier
dict-row enumeration gave for the same cases.
"""

import asyncio
import json

import pytest

from repro.engine import GTEA, QuerySession
from repro.graph import DataGraph
from repro.query import QueryBuilder, evaluate_naive, query_from_dict, query_to_dict
from repro.serve.server import QueryServer, serve_tcp
from tests.paper_fixtures import FIG2_ANSWER, fig2_graph, fig2_query, v


def with_outputs(query, outputs):
    spec = query_to_dict(query)
    spec["outputs"] = list(outputs)
    return query_from_dict(spec)


def group(node_id, *images):
    """A group column: the set of ``node_id``'s images as sorted items."""
    return frozenset(((node_id, image),) for image in images)


def chain_graph(with_c5=True):
    """``a0, a1`` over ``b2, b3`` over ``c4`` (and ``c5`` under ``b3``)."""
    edges = [(0, 2), (0, 3), (1, 3), (2, 4), (3, 4)]
    if with_c5:
        edges.append((3, 5))
    return DataGraph.from_edges("aabbcc" if with_c5 else "aabbc", edges)


def chain_query(*outputs):
    """``x(a) /pc y(b) /pc z(c)``."""
    return (
        QueryBuilder()
        .backbone("x", label="a")
        .backbone("y", parent="x", edge="pc", label="b")
        .backbone("z", parent="y", edge="pc", label="c")
        .outputs(*outputs)
        .build()
    )


class TestRows:
    def test_a_kept_child_without_an_output_column_is_an_existence_bit(self):
        # b6 -> c5 has no ``a`` above it: z keeps two images downward and
        # one upward, so y stays in x's fragment with no column below it.
        graph = DataGraph.from_edges("aabbccb", [(0, 2), (0, 3), (1, 3), (2, 4), (3, 4), (6, 5)])
        query = chain_query("x", "z")
        answer, stats = GTEA(graph).evaluate_with_stats(query)
        assert stats.candidates_after_downward["z"] == 2
        assert stats.candidates_after_upward["z"] == 1
        assert stats.matching_graph_nodes == 4  # the images of x and y
        assert answer == evaluate_naive(query, graph) == {(0, 4), (1, 4)}

    def test_two_fragments_and_a_singleton_in_one_product(self):
        # r0 and w5 have one image each and drop out: {x, y} and {v} are
        # two fragments, and s is a singleton output.
        graph = DataGraph.from_edges(
            "rxxyywvvs",
            [(0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (0, 5), (5, 6), (5, 7), (0, 8)],
        )
        query = (
            QueryBuilder()
            .backbone("r", label="r")
            .backbone("x", parent="r", edge="pc", label="x")
            .backbone("y", parent="x", edge="pc", label="y")
            .backbone("w", parent="r", edge="pc", label="w")
            .backbone("v", parent="w", edge="pc", label="v")
            .backbone("s", parent="r", edge="pc", label="s")
            .outputs("y", "s", "v", "x")
            .build()
        )
        answer, stats = GTEA(graph).evaluate_with_stats(query)
        assert stats.matching_graph_nodes == 6  # x, y and v, two images each
        expected = {(y, 8, w, x) for x, y in [(1, 3), (1, 4), (2, 4)] for w in (6, 7)}
        assert answer == evaluate_naive(query, graph) == expected

    def test_outputs_out_of_preorder(self):
        graph = fig2_graph()
        query = with_outputs(fig2_query(), ["u4", "u2"])
        answer = GTEA(graph).evaluate(query)
        assert answer == evaluate_naive(query, graph) == {(b, a) for a, b in FIG2_ANSWER}

    def test_overlapping_permuted_structures(self):
        graph = fig2_graph()
        structures = [["u4", "u2"], ["u2", "u3", "u4"], ["u3", "u2"], ["u4"]]
        answers, stats = GTEA(graph).evaluate_with_stats(fig2_query(), output_structures=structures)
        for position, outputs in enumerate(structures):
            expected = evaluate_naive(with_outputs(fig2_query(), outputs), graph)
            assert answers[position] == expected, outputs
        assert stats.result_count == sum(len(answer) for answer in answers.values())


class TestGroupColumn:
    def test_a_group_node_that_roots_its_fragment_keeps_one_row_per_image(self):
        # y is the only output with two images: it roots the one fragment,
        # and no parent row is left to group its images under.
        assert GTEA(chain_graph()).evaluate(chain_query("y"), group_nodes=("y",)) == {(2,), (3,)}

    def test_a_singleton_group_output(self):
        engine = GTEA(chain_graph(with_c5=False))
        assert engine.evaluate(chain_query("x", "y", "z"), group_nodes=("z",)) == {
            (0, 2, group("z", 4)),
            (0, 3, group("z", 4)),
            (1, 3, group("z", 4)),
        }
        assert engine.evaluate(chain_query("z", "x"), group_nodes=("z",)) == {
            (group("z", 4), 0),
            (group("z", 4), 1),
        }

    def test_a_group_leaf_below_its_fragment_root(self):
        engine = GTEA(chain_graph())
        assert engine.evaluate(chain_query("x", "y", "z"), group_nodes=("z",)) == {
            (0, 2, group("z", 4)),
            (0, 3, group("z", 4, 5)),
            (1, 3, group("z", 4, 5)),
        }

    def test_grouped_structures(self):
        answers, __ = GTEA(fig2_graph()).evaluate_with_stats(
            fig2_query(),
            group_nodes=("u4",),
            output_structures=[["u3", "u4"], ["u4", "u2"], ["u2"]],
        )
        assert answers == {
            0: {(v(3), group("u4", v(11))), (v(5), group("u4", v(12), v(14)))},
            1: {
                (group("u4", v(11)), v(3)),
                (group("u4", v(12), v(14)), v(3)),
                (group("u4", v(12), v(14)), v(8)),
            },
            2: {(v(3),), (v(8),)},
        }


class TestGroupNodeRule:
    """One rule for the session, ``GTEA`` and the server: a group node is
    an output, and no output lies strictly below it."""

    @pytest.mark.parametrize("with_c5", [True, False])
    @pytest.mark.parametrize("group_nodes", [("y",), ("y", "z"), ("x",)])
    def test_an_output_below_a_group_node_is_rejected(self, with_c5, group_nodes):
        graph, query = chain_graph(with_c5), chain_query("x", "y", "z")
        below = "'z'" if group_nodes[0] == "y" else "'y'"
        message = f"group node '{group_nodes[0]}' has the output {below} below it"
        with pytest.raises(ValueError, match=message):
            QuerySession(graph).evaluate(query, group_nodes)
        with pytest.raises(ValueError, match=message):
            QuerySession(graph).evaluate_many([query], group_nodes)
        with pytest.raises(ValueError, match=message):
            GTEA(graph).evaluate(query, group_nodes=group_nodes)

    @pytest.mark.parametrize("with_c5", [True, False])
    def test_a_group_node_that_is_not_an_output_is_rejected(self, with_c5):
        graph, query = chain_graph(with_c5), chain_query("x", "y")
        with pytest.raises(ValueError, match="not outputs"):
            QuerySession(graph).evaluate(query, ("z",))
        with pytest.raises(ValueError, match="not outputs"):
            GTEA(graph).evaluate(query, group_nodes=("z",))

    def test_a_structure_output_below_a_group_node_is_rejected(self):
        with pytest.raises(ValueError, match="group node 'y' has the output 'z' below it"):
            GTEA(chain_graph()).evaluate_with_stats(
                chain_query("x", "y"), group_nodes=("y",), output_structures=[["y", "z"]]
            )

    @pytest.mark.parametrize("with_c5", [True, False])
    def test_the_server_replies_with_the_error(self, with_c5):
        graph = chain_graph(with_c5)
        full = query_to_dict(chain_query("x", "y", "z"))
        short = query_to_dict(chain_query("x", "y"))
        requests = [
            {"query": full, "group_nodes": ["y"]},
            {"query": full, "group_nodes": ["y", "z"]},
            {"query": short, "group_nodes": ["z"]},
            {"query": full, "group_nodes": ["z"]},
        ]

        async def run():
            server = QueryServer(graph)
            tcp = await serve_tcp(server, host="127.0.0.1", port=0)
            port = tcp.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            responses = []
            for request in requests:
                writer.write((json.dumps(request) + "\n").encode())
                await writer.drain()
                responses.append(json.loads(await asyncio.wait_for(reader.readline(), 10)))
            writer.close()
            await writer.wait_closed()
            tcp.close()
            await tcp.wait_closed()
            await server.stop()
            return responses, server.stats.summary()

        responses, summary = asyncio.run(run())
        *bad, good = responses
        assert [reply["ok"] for reply in bad] == [False] * 3
        assert "group node 'y' has the output 'z' below it" in bad[0]["error"]
        assert "group node 'y' has the output 'z' below it" in bad[1]["error"]
        assert "not outputs" in bad[2]["error"]
        assert good["ok"] and good["count"] == 3  # one row per (x, y) pair
        assert (summary["errors"], summary["requests"]) == (3, 1)
