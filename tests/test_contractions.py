import random

import networkx as nx
import pytest

import gso.blocks
import gso.contractions

from gso.contractions import (
    BudgetExceeded,
    contains_any,
    is_contraction,
    is_minor,
    is_outerplanar,
    proper_contractions,
)
from gso.canon import certificate, is_isomorphic, unique
from gso.gen import connected_graphs
from gso.graphs import (
    Graph,
    RootedGraph,
    complete_bipartite,
    complete_graph,
    contract_edge,
    cycle_graph,
    doubly_rooted,
    path_graph,
    star_graph,
)

from conftest import random_connected
from test_graphs import to_nx


def test_known_contractions():
    assert is_contraction(complete_graph(3), cycle_graph(5)) is not None
    assert is_contraction(path_graph(2), path_graph(5)) is not None
    assert is_contraction(star_graph(3), star_graph(3)) is not None


def test_contraction_is_exact_on_adjacency():
    # contracting a cycle always yields a cycle, never a clique
    assert is_contraction(complete_graph(4), cycle_graph(4)) is None
    # C_4 has non-adjacent classes, so it is not an exact quotient of K_4
    assert is_contraction(cycle_graph(4), complete_graph(4)) is None
    # ... but it is a minor (drop one edge)
    assert is_minor(cycle_graph(4), complete_graph(4)) is not None


def test_trees_contract_to_trees():
    assert is_contraction(complete_graph(3), path_graph(6)) is None
    assert is_contraction(star_graph(3), path_graph(6)) is None


def test_witness_is_a_valid_quotient_map(rng):
    for _ in range(30):
        g = random_connected(rng, 5)
        h = random_connected(rng, rng.randint(1, g.n))
        w = is_contraction(h, g)
        if w is None:
            continue
        phi = w.phi
        assert len(phi) == g.n and set(phi) == set(range(h.n))
        for c in range(h.n):
            vs = [v for v in range(g.n) if phi[v] == c]
            sub, _ = g.induced(vs)
            assert sub.is_connected()
        adj = {
            (phi[u], phi[v]) for u, v in g.edges if phi[u] != phi[v]
        }
        quotient = {(min(a, b), max(a, b)) for a, b in adj}
        assert quotient == set(h.edges)


def test_rooted_contraction_respects_roots():
    # a path rooted at one end contracts onto an edge with the same root
    rg = RootedGraph(path_graph(3), frozenset({0}), frozenset({0}))
    good = RootedGraph(path_graph(2), frozenset({0}), frozenset({0}))
    bad = RootedGraph(path_graph(2), frozenset({1}), frozenset({0}))
    assert is_contraction(good, rg) is not None
    assert is_contraction(bad, rg) is None
    # unrooted wrapper ignores colors entirely
    assert is_contraction(path_graph(2), path_graph(3)) is not None


def test_rooted_single_root_positions_matter():
    # star rooted at the center: no contraction can move the root onto
    # a class that is a leaf of K_1,3
    rg = doubly_rooted(star_graph(4), 0)
    leaf = doubly_rooted(star_graph(3), 1)
    center = doubly_rooted(star_graph(3), 0)
    assert is_contraction(center, rg) is not None
    assert is_contraction(leaf, rg) is None


def test_contains_any_relations():
    fam = [complete_graph(3), star_graph(3)]
    assert contains_any(cycle_graph(5), fam)
    assert not contains_any(path_graph(6), fam)
    assert contains_any(path_graph(6), [path_graph(3)], relation="minor")


def test_contraction_order_is_generated_by_single_edge_contractions():
    # the fact obstruction mining rests on: h is a contraction of a
    # connected g exactly when single-edge contractions lead from g to h
    below: dict[bytes, set[bytes]] = {}  # g -> g and all it contracts to
    for n in range(1, 7):
        for g in connected_graphs(n):
            cert = certificate(g)
            below[cert] = {cert}.union(
                *(below[certificate(c)] for c in proper_contractions(g))
            )
    small = [h for n in range(1, 6) for h in connected_graphs(n)]
    hosts = [(g, small) for g in small]
    hosts += [(g, [h for h in small if h.n <= 4]) for g in connected_graphs(6)]
    for g, patterns in hosts:
        closure = below[certificate(g)]
        for h in patterns:
            assert (is_contraction(h, g) is not None) == (certificate(h) in closure)


def test_budget_exhaustion_raises():
    with pytest.raises(BudgetExceeded):
        is_contraction(complete_graph(3), complete_graph(7), budget=5)


def test_proper_contractions_small():
    got = proper_contractions(path_graph(3))
    assert len(got) == 1 and next(iter(got)).edges == ((0, 1),)
    got = proper_contractions(cycle_graph(4))
    assert len(got) == 1
    assert is_isomorphic(next(iter(got)), complete_graph(3))


def test_proper_contractions_dedup(rng):
    for _ in range(20):
        g = random_connected(rng, 5)
        got = proper_contractions(g)
        certs = {certificate(c) for c in got}
        assert len(certs) == len(got)
        assert all(c.n == g.n - 1 for c in got)


def test_proper_contractions_contract_every_class():
    # contracting one edge per automorphism orbit loses no class that
    # contracting every edge finds
    from gso.obstructions import mine_branch_base, obr_set

    graphs = [g for n in range(1, 7) for g in connected_graphs(n)]
    graphs += obr_set(1, mine_branch_base(7))
    for g in graphs:
        assert proper_contractions(g) == unique(contract_edge(g, e) for e in g.edges)


def nx_outerplanar(g: Graph) -> bool:
    # a graph is outerplanar iff adding an apex joined to every vertex
    # keeps it planar
    h = to_nx(g)
    apex = g.n
    h.add_node(apex)
    for v in range(g.n):
        h.add_edge(apex, v)
    ok, _ = nx.check_planarity(h)
    return ok


def test_outerplanar_known_cases():
    assert is_outerplanar(path_graph(5))
    assert is_outerplanar(cycle_graph(6))
    assert not is_outerplanar(complete_graph(4))
    assert not is_outerplanar(complete_bipartite(2, 3))


def test_outerplanar_edge_bound(monkeypatch):
    # an outerplanar graph with n >= 2 has at most 2n - 3 edges; K4 has
    # 6 > 5 and is refused without a block walk
    k4 = complete_graph(4)
    assert not nx_outerplanar(k4)

    def no_block_walk(*args, **kwargs):
        raise AssertionError("is_outerplanar walked the blocks")

    with monkeypatch.context() as m:
        m.setattr(gso.blocks, "_block_masks", no_block_walk)
        assert not is_outerplanar(k4)
    # K4 less an edge meets the bound and is outerplanar
    k4e = Graph.from_edges(4, k4.edges[1:])
    assert k4e.m == 2 * 4 - 3
    assert is_outerplanar(k4e) and nx_outerplanar(k4e)
    assert is_outerplanar(Graph(1, (0,)))


def minor_outerplanar(g: Graph) -> bool:
    # outerplanar iff no component has a K4 or K2,3 minor (the minor
    # search partitions every host vertex, so it needs a connected host)
    for mask in g.components():
        comp, _ = g.induced([v for v in range(g.n) if mask >> v & 1])
        if (
            is_minor(complete_graph(4), comp) is not None
            or is_minor(complete_bipartite(2, 3), comp) is not None
        ):
            return False
    return True


def test_outerplanar_matches_planarity_oracle(monkeypatch):
    assert is_outerplanar is gso.blocks.is_outerplanar
    graphs = [g for n in range(1, 8) for g in connected_graphs(n)]
    rng = random.Random(20140)
    for _ in range(2000):
        n = rng.randint(1, 9)
        p = rng.uniform(0.15, 0.7)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        graphs.append(Graph.from_edges(n, edges))
    assert sum(not g.is_connected() for g in graphs) > 500
    expected = [nx_outerplanar(g) for g in graphs]
    assert expected == [minor_outerplanar(g) for g in graphs]
    assert 0 < sum(expected) < len(graphs)

    def no_minor_search(*args, **kwargs):
        raise AssertionError("is_outerplanar ran a minor search")

    monkeypatch.setattr(gso.contractions, "is_minor", no_minor_search)
    assert [is_outerplanar(g) for g in graphs] == expected
