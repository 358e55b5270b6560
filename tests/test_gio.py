import io
import json

import networkx as nx
import pytest

from gso.canon import certificate
from gso.gio import (
    Graph6Error,
    graph6_decode,
    graph6_encode,
    read_graphs,
    rooted_from_json,
    rooted_to_json,
    write_graph6_lines,
)
from gso.graphs import Graph, RootedGraph, complete_graph, path_graph

from conftest import random_connected
from test_graphs import to_nx


def test_known_encodings():
    assert graph6_encode(complete_graph(3)) == "Bw"
    assert graph6_encode(Graph.from_edges(1, [])) == "@"
    assert graph6_decode("Bw").edges == ((0, 1), (0, 2), (1, 2))


def test_roundtrip(rng):
    for _ in range(200):
        n = rng.randint(1, 9)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.4
        ]
        g = Graph.from_edges(n, edges)
        back = graph6_decode(graph6_encode(g))
        assert back.n == g.n and back.edges == g.edges


def test_matches_networkx_oracle(rng):
    for _ in range(200):
        g = random_connected(rng, 7)
        ours = graph6_encode(g)
        theirs = nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
        assert ours == theirs
        decoded = graph6_decode(theirs)
        assert certificate(decoded) == certificate(g)


def test_decode_rejects_garbage():
    with pytest.raises(Graph6Error):
        graph6_decode("")
    with pytest.raises(Graph6Error):
        graph6_decode("B")  # truncated edge bits
    with pytest.raises(Graph6Error):
        graph6_decode("\x01\x02")


def test_graph6_lines_io():
    graphs = [path_graph(3), complete_graph(4)]
    buf = io.StringIO()
    write_graph6_lines(graphs, buf)
    buf.seek(0)
    back = read_graphs(buf)
    assert [rg.graph.edges for rg in back] == [g.edges for g in graphs]
    assert all(not rg.s_in and not rg.s_out for rg in back)


def test_rooted_json_roundtrip():
    rg = RootedGraph(path_graph(3), frozenset({0}), frozenset({2, 1}))
    line = rooted_to_json(rg)
    obj = json.loads(line)
    assert obj["s_in"] == [0] and obj["s_out"] == [1, 2]
    back = rooted_from_json(line)
    assert back.graph.edges == rg.graph.edges
    assert back.s_in == rg.s_in and back.s_out == rg.s_out


def test_rooted_json_defaults_to_empty_roots():
    line = json.dumps({"g6": graph6_encode(path_graph(2))})
    rg = rooted_from_json(line)
    assert rg.s_in == frozenset() and rg.s_out == frozenset()


@pytest.mark.parametrize(
    "line",
    [
        "[1]",
        '"C~"',
        '{"s_in": [0]}',
        '{"g6": 5}',
        '{"g6": "C~", "s_in": 5}',
        '{"g6": "C~", "s_in": [4]}',
        '{"g6": "C~", "s_out": [-1]}',
        '{"g6": "C~", "s_out": ["0"]}',
        '{"g6": "C~", "s_in": [true]}',
        '{"g6": "C~", "s_in": [0.0]}',
    ],
)
def test_rooted_json_rejects_bad_records(line):
    with pytest.raises(ValueError):
        rooted_from_json(line)


def test_read_rooted_lines_skips_blanks():
    lines = [rooted_to_json(RootedGraph(path_graph(2))), "", " "]
    got = read_graphs(io.StringIO("\n".join(lines)))
    assert len(got) == 1


def test_read_graphs_mixes_graph6_and_json_lines():
    rooted = RootedGraph(path_graph(3), frozenset({0}), frozenset({2}))
    lines = [
        graph6_encode(complete_graph(4)),
        "",
        rooted_to_json(rooted),
        "   ",
        # a 63-vertex graph6 string opens with '~', a 60-vertex one with '{'
        graph6_encode(path_graph(63)),
        graph6_encode(path_graph(60)),
        json.dumps({"g6": graph6_encode(path_graph(2))}),
    ]
    got = read_graphs(io.StringIO("\n".join(lines) + "\n\n"))
    assert [(rg.graph.n, rg.graph.m) for rg in got] == [
        (4, 6), (3, 2), (63, 62), (60, 59), (2, 1)
    ]
    assert got[1] == rooted
    assert all(not rg.s_in and not rg.s_out for rg in got[:1] + got[2:])


def test_read_graphs_refuses_a_disconnected_graph():
    lines = [graph6_encode(path_graph(2)), graph6_encode(Graph.from_edges(2, []))]
    with pytest.raises(ValueError, match="^<input>:2: .*connected"):
        read_graphs(io.StringIO("\n".join(lines)))
