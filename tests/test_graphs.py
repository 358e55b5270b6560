import random

import networkx as nx
import pytest

from gso.gen import connected_graphs
from gso.graphs import (
    Graph,
    Part,
    RootedGraph,
    complete_graph,
    contract_edge,
    contract_edge_rooted,
    cycle_graph,
    doubly_rooted,
    enhance,
    glue,
    _merged_ids,
    norm_edge,
    path_graph,
    rev,
    star_graph,
)

from conftest import random_connected


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def test_from_edges_normalizes_and_dedups():
    g = Graph.from_edges(3, [(1, 0), (0, 1), (2, 1)])
    assert g.edges == ((0, 1), (1, 2))
    assert g.m == 2
    assert g.has_edge(1, 0)
    assert not g.has_edge(0, 2)


def test_degree_and_neighbors():
    g = star_graph(3)
    assert g.degree(0) == 3
    assert sorted(g.neighbors(0)) == [1, 2, 3]
    assert g.degree(2) == 1


def test_neighbors_are_the_set_bits_in_ascending_order(rng):
    for _ in range(200):
        n = rng.randint(1, 12)
        g = Graph.from_edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        )
        for v in range(n):
            assert list(g.neighbors(v)) == [u for u in range(n) if g.adj[v] >> u & 1]


def test_loops_rejected():
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(1, 1)])


def test_connectivity_matches_networkx(rng):
    for _ in range(200):
        n = rng.randint(1, 6)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.4
        ]
        g = Graph.from_edges(n, edges)
        assert g.is_connected() == nx.is_connected(to_nx(g))


def test_vertex_mask_connectivity_matches_networkx(rng):
    """is_connected(allowed) and components(allowed) read the subgraph
    induced by allowed; the empty mask is connected with no components."""
    for _ in range(200):
        n = rng.randint(1, 7)
        g = Graph.from_edges(
            n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        )
        for allowed in {0, (1 << n) - 1, rng.getrandbits(n), rng.getrandbits(n)}:
            sub = to_nx(g).subgraph(v for v in range(n) if allowed >> v & 1)
            comps = sorted(
                (sum(1 << v for v in c) for c in nx.connected_components(sub)),
                key=lambda m: m & -m,
            )
            assert g.components(allowed) == comps
            assert g.is_connected(allowed) == (len(comps) <= 1)
            if allowed:
                assert g.is_connected(allowed) == nx.is_connected(sub)


def test_vertex_mask_forest_matches_networkx(rng):
    """is_forest(allowed) reads the subgraph induced by allowed; the empty
    mask is a forest."""
    seen = set()
    for _ in range(200):
        n = rng.randint(1, 7)
        g = Graph.from_edges(
            n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        )
        for allowed in {0, (1 << n) - 1, rng.getrandbits(n), rng.getrandbits(n)}:
            sub = to_nx(g).subgraph(v for v in range(n) if allowed >> v & 1)
            want = nx.is_forest(sub) if allowed else True
            assert g.is_forest(allowed) == want
            seen.add(want)
        assert g.is_forest() == nx.is_forest(to_nx(g))
    assert seen == {True, False}


def test_components_partition(rng):
    g = Graph.from_edges(6, [(0, 1), (2, 3), (3, 4)])
    masks = g.components()
    assert sum(masks) == (1 << 6) - 1
    assert sorted(m.bit_count() for m in masks) == [1, 2, 3]


def test_induced_subgraph():
    g = cycle_graph(5)
    sub, idx = g.induced([0, 1, 3])
    assert sub.n == 3
    assert sub.edges == ((idx[0], idx[1]),)


def test_relabel_preserves_structure():
    g = path_graph(4)
    h = g.relabel([3, 2, 1, 0])
    assert nx.is_isomorphic(to_nx(g), to_nx(h))


def test_contract_edge_triangle():
    g = complete_graph(3)
    c = contract_edge(g, (0, 1))
    assert c.n == 2 and c.m == 1


def test_contract_edge_matches_networkx(rng):
    for _ in range(100):
        g = random_connected(rng, 6)
        if g.m == 0:
            continue
        e = rng.choice(g.edges)
        c = contract_edge(g, e)
        h = nx.contracted_edge(to_nx(g), e, self_loops=False)
        assert nx.is_isomorphic(to_nx(c), h)


def contract_by_edge_list(g: Graph, e: tuple[int, int]) -> Graph:
    """The contraction by its definition: map each edge's ends through
    `_merged_ids` and drop the merged edge and the parallel copies."""
    u, v = norm_edge(*e)
    to = _merged_ids(g.n, u, v)
    return Graph.from_edges(
        g.n - 1, {norm_edge(to[a], to[b]) for a, b in g.edges if to[a] != to[b]}
    )


def test_contract_edge_matches_its_edge_list_definition():
    graphs = [g for n in range(1, 8) for g in connected_graphs(n)]
    rng = random.Random(151)
    for _ in range(400):
        n = rng.randint(2, 12)
        p = rng.random()
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        graphs.append(Graph.from_edges(n, edges))
    assert sum(not g.is_connected() for g in graphs) > 100
    for g in graphs:
        for u, v in g.edges:
            want = contract_by_edge_list(g, (u, v))
            assert contract_edge(g, (u, v)) == want, (g.edges, u, v)
            assert contract_edge(g, (v, u)) == want
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if not g.has_edge(u, v):
                    with pytest.raises(ValueError):
                        contract_edge(g, (u, v))


def test_rooted_graph_validation():
    g = path_graph(3)
    with pytest.raises(ValueError):
        RootedGraph(g, frozenset({5}), frozenset())
    rg = RootedGraph(g, frozenset({0}), frozenset({2}))
    assert rev(rg).s_in == frozenset({2})


def test_doubly_rooted():
    rg = doubly_rooted(path_graph(3), 1)
    assert rg.s_in == rg.s_out == frozenset({1})


def test_contract_edge_rooted_moves_roots():
    rg = RootedGraph(path_graph(3), frozenset({0}), frozenset({2}))
    c = contract_edge_rooted(rg, (0, 1))
    assert c.graph.n == 2
    assert len(c.s_in) == 1 and len(c.s_out) == 1


def test_enhance_adds_apexes():
    rg = RootedGraph(path_graph(2), frozenset({0}), frozenset({1}))
    enh = enhance(rg)
    assert enh.host.n == 4
    assert enh.e_in == frozenset({norm_edge(0, enh.u_in)})
    assert enh.e_out == frozenset({norm_edge(1, enh.u_out)})
    assert enh.host.m == rg.graph.m + 2


def test_enhance_empty_roots():
    rg = RootedGraph(path_graph(2))
    enh = enhance(rg)
    assert enh.e_in == frozenset() and enh.e_out == frozenset()
    assert enh.e_start == frozenset()


def test_enhance_start_is_e_in_plus_edges_inside_s_in():
    # s_in = {0, 1, 2} on a 4-cycle: (0, 1) and (1, 2) lie inside it
    rg = RootedGraph(cycle_graph(4), frozenset({0, 1, 2}), frozenset({3}))
    enh = enhance(rg)
    assert enh.e_start == enh.e_in | {(0, 1), (1, 2)}
    assert not enh.e_start & enh.e_out
    # E_in is a star at u_in over S_in, so the start is connected even
    # when S_in is not; the expansion search tests only new edges on it
    rg = RootedGraph(path_graph(4), frozenset({0, 2}), frozenset())
    assert nx.is_connected(nx.Graph(list(enhance(rg).e_start)))


def test_glue_two_paths_at_vertex():
    a = RootedGraph(path_graph(2), frozenset(), frozenset({1}))
    b = RootedGraph(path_graph(2), frozenset({0}), frozenset())
    pa = Part.from_rooted(a, [0, 1])
    pb = Part.from_rooted(b, [1, 2])
    glued, idx = glue([pa, pb])
    assert glued.graph.n == 3
    assert nx.is_isomorphic(to_nx(glued.graph), to_nx(path_graph(3)))


def test_glue_label_mismatch_rejected():
    a = RootedGraph(path_graph(2), frozenset(), frozenset({1}))
    b = RootedGraph(path_graph(2), frozenset({0}), frozenset())
    pa = Part.from_rooted(a, [0, 1])
    pb = Part.from_rooted(b, [5, 6])
    with pytest.raises(ValueError):
        glue([pa, pb])
