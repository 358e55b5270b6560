import sys

import networkx as nx
import pytest

from gso.blocks import blocks_and_cuts
from gso.gen import connected_graphs
from gso.graphs import Graph, complete_graph, cycle_graph, path_graph, star_graph

from conftest import random_connected
from test_contractions import nx_outerplanar
from test_graphs import to_nx


def test_path_blocks_are_hairs():
    dec = blocks_and_cuts(path_graph(3))
    assert sorted(b.kind for b in dec.blocks) == ["hair", "hair"]
    assert dec.cut_vertices == frozenset({1})
    assert dec.weights[1] == "heavy"  # cut vertex of two hairs


def test_long_path_has_a_bridge():
    dec = blocks_and_cuts(path_graph(4))
    assert sorted(b.kind for b in dec.blocks) == ["bridge", "hair", "hair"]


def test_light_cut_vertex():
    # triangle with one pendant edge: the cut vertex holds a single hair
    g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    dec = blocks_and_cuts(g)
    assert dec.cut_vertices == frozenset({2})
    assert dec.weights[2] == "light"


def test_cycle_and_essential_kinds():
    dec = blocks_and_cuts(cycle_graph(5))
    assert [b.kind for b in dec.blocks] == ["cycle"]
    dec = blocks_and_cuts(complete_graph(4))
    assert [b.kind for b in dec.blocks] == ["essential"]
    assert dec.cut_vertices == frozenset()


def test_star_weights():
    dec = blocks_and_cuts(star_graph(3))
    assert all(b.kind == "hair" for b in dec.blocks)
    assert dec.weights[0] == "heavy"


def test_requires_connected_with_edges():
    with pytest.raises(ValueError):
        blocks_and_cuts(Graph.from_edges(3, [(0, 1)]))
    with pytest.raises(ValueError):
        blocks_and_cuts(Graph.from_edges(1, []))


def test_deep_block_tree_needs_no_deep_stack():
    # a path's 199 blocks chain 198 cut vertices; the walk must not nest
    # a call per block, so 50 frames above the caller's depth suffice
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        dec = blocks_and_cuts(path_graph(200))
    finally:
        sys.setrecursionlimit(limit)
    assert len(dec.blocks) == 199
    assert dec.cut_vertices == frozenset(range(1, 199))


def test_matches_networkx_decomposition(rng):
    for _ in range(60):
        g = random_connected(rng, 7)
        if g.m == 0:
            continue
        dec = blocks_and_cuts(g)
        h = to_nx(g)
        ours = {b.edges for b in dec.blocks}
        theirs = {
            frozenset((min(u, v), max(u, v)) for u, v in comp)
            for comp in nx.biconnected_component_edges(h)
        }
        assert ours == theirs
        assert dec.cut_vertices == frozenset(nx.articulation_points(h))


def test_outerplanar_block_faces():
    # C_4 with chord (0, 2): two triangular faces, both haploid
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    dec = blocks_and_cuts(g)
    (b,) = dec.blocks
    assert b.kind == "essential"
    assert b.outer_cycle is not None and len(b.outer_cycle) == 4
    assert b.chords == frozenset({(0, 2)})
    assert b.faces is not None and len(b.faces) == 2
    assert all(f.haploid for f in b.faces)
    assert all((0, 2) in f.edges for f in b.faces)


def test_plain_cycle_face_is_haploid():
    dec = blocks_and_cuts(cycle_graph(5))
    (b,) = dec.blocks
    assert b.chords == frozenset()
    assert len(b.faces) == 1 and b.faces[0].haploid
    assert b.faces[0].edges == frozenset(cycle_graph(5).edges)


def test_nonouterplanar_block_has_no_face_data():
    dec = blocks_and_cuts(complete_graph(4))
    (b,) = dec.blocks
    assert b.outer_cycle is None and b.faces is None


def two_connected_outerplanar(n_max: int):
    """(graph, its single block) for every 2-connected outerplanar graph
    with n <= n_max, checked against networkx."""
    out = []
    for n in range(3, n_max + 1):
        for g in connected_graphs(n):
            dec = blocks_and_cuts(g)
            ours = len(dec.blocks) == 1 and dec.blocks[0].outer_cycle is not None
            assert ours == (nx.is_biconnected(to_nx(g)) and nx_outerplanar(g))
            if ours:
                out.append((g, dec.blocks[0]))
    return out


def test_outerplanar_face_invariants():
    found = two_connected_outerplanar(7)
    assert [sum(g.n == n for g, _ in found) for n in range(3, 8)] == [1, 2, 3, 9, 20]
    for g, b in found:
        cyc = b.outer_cycle
        sides = {tuple(sorted((cyc[i - 1], cyc[i]))) for i in range(g.n)}
        assert sorted(cyc) == list(range(g.n)) and sides <= set(g.edges)
        assert b.chords == frozenset(g.edges) - sides
        assert len(b.faces) == g.m - g.n + 1
        for e in sides:
            assert sum(e in f.edges for f in b.faces) == 1
        for e in b.chords:
            assert sum(e in f.edges for f in b.faces) == 2
        for f in b.faces:
            assert f.haploid == (len(f.edges & b.chords) <= 1)


def test_faces_built_only_when_read(monkeypatch):
    import gso.blocks as blocks

    calls = []
    real = blocks._faces

    def counted(cyc, edges):
        calls.append(cyc)
        return real(cyc, edges)

    monkeypatch.setattr(blocks, "_faces", counted)
    decs = [blocks_and_cuts(g) for n in range(2, 7) for g in connected_graphs(n)]
    assert calls == []
    outer = [b for dec in decs for b in dec.blocks if b.outer_cycle is not None]
    assert outer
    for b in outer:
        assert b.faces is b.faces
    assert all(b.faces is None for dec in decs for b in dec.blocks if b.outer_cycle is None)
    assert len(calls) == len(outer)  # each block builds its faces once
