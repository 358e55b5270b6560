import itertools

import networkx as nx

from gso.canon import (
    canonical_graph,
    certificate,
    is_isomorphic,
    is_rooted_isomorphic,
    rooted_certificate,
    unique,
)
from gso.gen import connected_graphs
from gso.graphs import Graph, RootedGraph, cycle_graph, path_graph, star_graph

from conftest import random_connected
from test_graphs import to_nx


def test_certificate_invariant_under_relabeling(rng):
    for _ in range(100):
        g = random_connected(rng, 6)
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert certificate(g) == certificate(g.relabel(perm))


def test_certificate_separates_nonisomorphic():
    assert certificate(path_graph(4)) != certificate(star_graph(3))
    assert certificate(cycle_graph(6)) != certificate(
        Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    )


def test_is_isomorphic_matches_networkx(rng):
    for _ in range(150):
        n = rng.randint(1, 5)
        ga = rng.choice(connected_graphs(n))
        gb = rng.choice(connected_graphs(n))
        assert is_isomorphic(ga, gb) == nx.is_isomorphic(to_nx(ga), to_nx(gb))


def test_canonical_graph_is_isomorphic_fixpoint(rng):
    for _ in range(50):
        g = random_connected(rng, 6)
        c = canonical_graph(g)
        assert is_isomorphic(g, c)
        assert certificate(c) == certificate(g)


def test_unique_keeps_one_canonical_graph_per_class(rng):
    graphs = []
    for _ in range(60):
        g = random_connected(rng, 6)
        perm = list(range(g.n))
        rng.shuffle(perm)
        graphs += [g, g.relabel(perm)]
    got = unique(graphs)
    certs = [certificate(c) for c in got]
    assert set(certs) == {certificate(g) for g in graphs}
    assert certs == sorted(set(certs))  # strictly increasing: one per class
    assert all(canonical_graph(c) == c for c in got)


def test_exhaustive_n4_classes():
    # all labeled graphs on 4 vertices fall into 11 isomorphism classes
    certs = set()
    pairs = list(itertools.combinations(range(4), 2))
    for bits in range(1 << len(pairs)):
        edges = [e for i, e in enumerate(pairs) if bits >> i & 1]
        certs.add(certificate(Graph.from_edges(4, edges)))
    assert len(certs) == 11


def test_rooted_certificate_distinguishes_roots():
    g = path_graph(3)
    end = RootedGraph(g, frozenset({0}), frozenset({0}))
    mid = RootedGraph(g, frozenset({1}), frozenset({1}))
    assert rooted_certificate(end) != rooted_certificate(mid)
    other_end = RootedGraph(g, frozenset({2}), frozenset({2}))
    assert is_rooted_isomorphic(end, other_end)


def test_rooted_certificate_invariant(rng):
    for _ in range(100):
        g = random_connected(rng, 5)
        v = rng.randrange(g.n)
        rg = RootedGraph(g, frozenset({v}), frozenset({v}))
        perm = list(range(g.n))
        rng.shuffle(perm)
        rg2 = RootedGraph(
            g.relabel(perm), frozenset({perm[v]}), frozenset({perm[v]})
        )
        assert rooted_certificate(rg) == rooted_certificate(rg2)


def test_rooted_in_out_asymmetry():
    g = path_graph(2)
    a = RootedGraph(g, frozenset({0}), frozenset())
    b = RootedGraph(g, frozenset(), frozenset({0}))
    assert rooted_certificate(a) != rooted_certificate(b)
