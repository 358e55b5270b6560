import hashlib
import itertools
import random

import networkx as nx
import pytest

from gso.canon import (
    canonical_certificate,
    canonical_graph,
    canonical_labelling,
    certificate,
    is_isomorphic,
    rooted_certificate,
    unique,
)
from gso.gen import connected_graphs
from gso.graphs import (
    Graph,
    RootedGraph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)

from conftest import random_connected
from test_gen import unpruned_children
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
    assert rooted_certificate(end) == rooted_certificate(other_end)


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


def test_golden_certificates():
    # digests of the certificate bytes that mining output and every
    # certificate-ordered list depend on; a change here reorders them
    plain = b"\n".join(
        certificate(g) for n in range(1, 8) for g in connected_graphs(n)
    )
    assert hashlib.sha256(plain).hexdigest() == (
        "04c1d2fb7afc929a4d43a1879b69206657dadf8b88d0641201a53a3826a2455e"
    )
    rooted = [
        rooted_certificate(RootedGraph(g, frozenset({a}), frozenset({b})))
        for n in range(1, 6)
        for g in connected_graphs(n)
        for a in range(n)
        for b in range(n)
    ]
    assert len(rooted) == 644
    assert hashlib.sha256(b"\n".join(rooted)).hexdigest() == (
        "3514df7fa26ea755f87123d24fb57c5d6edd45f20af34b59dc12585ed5634987"
    )


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


def cube_graph() -> Graph:
    return Graph.from_edges(
        8, [(v, v ^ 1 << b) for v in range(8) for b in range(3) if v < v ^ 1 << b]
    )


SYMMETRIC = {
    "K8": complete_graph(8),
    "K4,4": complete_bipartite(4, 4),
    "Petersen": petersen_graph(),
    "Q3": cube_graph(),
    "C12": cycle_graph(12),
    "K1,6": star_graph(6),  # centre 0, so the rooted case below roots it
}


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_symmetric_graph_has_one_canonical_form(rng, name):
    g = SYMMETRIC[name]
    perms = [rng.sample(range(g.n), g.n) for _ in range(20)]
    copies = [g.relabel(p) for p in perms]
    assert len({certificate(c) for c in copies}) == 1
    assert len({canonical_graph(c) for c in copies}) == 1
    assert len(unique(copies)) == 1
    # s_in = {image of 0}, s_out = {image of 1}
    rooted = {
        rooted_certificate(RootedGraph(c, frozenset({p[0]}), frozenset({p[1]})))
        for c, p in zip(copies, perms)
    }
    assert len(rooted) == 1


def test_regular_pairs_that_refinement_cannot_split():
    prism = Graph.from_edges(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
    )
    assert not is_isomorphic(complete_bipartite(3, 3), prism)
    two_c4 = Graph.from_edges(
        8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)]
    )
    assert not is_isomorphic(cycle_graph(8), two_c4)


def test_canonical_certificate_of_generated_graphs():
    # connected_graphs returns canonical representatives
    for n in range(1, 8):
        for g in connected_graphs(n):
            assert canonical_certificate(g) == certificate(g)


# --- parity with the colour-list refinement -------------------------------


def _parent_refine(nbrs, colors):
    """The refinement before it went cell by cell: every vertex's
    signature (colour, sorted neighbour colours) is ranked in one sort."""
    cells = len(set(colors))
    while True:
        sigs = [
            (colors[v], tuple(sorted([colors[u] for u in nb])))
            for v, nb in enumerate(nbrs)
        ]
        ranked = sorted(set(sigs))
        order = {s: i for i, s in enumerate(ranked)}
        new = tuple(order[s] for s in sigs)
        if len(ranked) == cells:
            return new, cells
        colors, cells = new, len(ranked)


def _parent_search(nbrs, edges, colors, path, best, autos):
    """The individualisation search over colour tuples, on `_parent_refine`."""
    colors, k = _parent_refine(nbrs, colors)
    n = len(colors)
    if k == n:
        code = 0
        for u, v in edges:
            i, j = sorted((colors[u], colors[v]))
            code |= 1 << (i * n + j)
        if best is None or code < best[0]:
            return code, colors
        if code == best[0]:
            perm = [0] * n
            for v, i in enumerate(colors):
                perm[i] = v
            autos.append(tuple(perm[i] for i in best[1]))
        return best
    first = next(c for c in range(k) if colors.count(c) > 1)
    target = [v for v, c in enumerate(colors) if c == first]
    orbit = {v: v for v in target}
    used = 0
    explored = []
    for v in target:
        for auto in autos[used:]:
            if all(auto[p] == p for p in path):
                for x in target:
                    a, b = orbit[x], orbit[auto[x]]
                    if a != b:
                        for y in target:
                            if orbit[y] == b:
                                orbit[y] = a
        used = len(autos)
        if any(orbit[u] == orbit[v] for u in explored):
            continue
        explored.append(v)
        branched = tuple(c * 2 + (1 if u == v else 0) for u, c in enumerate(colors))
        path.append(v)
        best = _parent_search(nbrs, edges, branched, path, best, autos)
        path.pop()
    return best


def _parent_certificate_and_canonical(g, colors):
    nbrs = [list(g.neighbors(v)) for v in range(g.n)]
    order = {c: i for i, c in enumerate(sorted(set(colors)))}
    code, pos = _parent_search(
        nbrs, g.edges, tuple(order[c] for c in colors), [], None, []
    )
    cols = [0] * g.n
    for v, i in enumerate(pos):
        cols[i] = colors[v]
    plain = _parent_search(nbrs, g.edges, (0,) * g.n, [], None, [])[1]
    return repr((g.n, code, tuple(cols))).encode(), g.relabel(plain)


def test_cellwise_refinement_matches_parent_on_generated_children():
    for n in range(2, 7):
        for g in unpruned_children(n):
            cert, canon = _parent_certificate_and_canonical(g, [0] * n)
            assert certificate(g) == cert
            assert canonical_graph(g) == canon


def test_cellwise_refinement_matches_parent_on_random_colored_graphs():
    rng = random.Random(1118)
    for _ in range(600):
        n = rng.randint(1, 9)
        density = rng.random()
        g = Graph.from_edges(
            n,
            [e for e in itertools.combinations(range(n), 2) if rng.random() < density],
        )
        colors = [rng.choice((0, 1, 2, 5)) for _ in range(n)]
        cert, canon = _parent_certificate_and_canonical(g, colors)
        assert certificate(g, colors) == cert
        assert canonical_graph(g) == canon


# --- automorphisms found by canonical_labelling ---------------------------


def _orbits(n, perms):
    orbit = list(range(n))
    for perm in perms:
        for v, w in enumerate(perm):
            a, b = orbit[v], orbit[w]
            if a != b:
                orbit = [min(a, b) if x in (a, b) else x for x in orbit]
    return orbit


def test_automorphisms_give_the_full_groups_orbits():
    for n in range(1, 7):
        for g in connected_graphs(n):
            found = canonical_labelling(g)[2]
            for perm in found:
                assert sorted(perm) == list(range(n))
                assert g.relabel(perm) == g
            group = [
                p for p in itertools.permutations(range(n)) if g.relabel(p) == g
            ]
            assert _orbits(n, found) == _orbits(n, group), g.edges
            assert (found == []) == (len(group) == 1), g.edges


def test_automorphisms_of_symmetric_graphs():
    for name, g in SYMMETRIC.items():
        found = canonical_labelling(g)[2]
        assert all(g.relabel(perm) == g for perm in found), name
        # each of these graphs is vertex-transitive but the star
        want = [0] + [1] * (g.n - 1) if name == "K1,6" else [0] * g.n
        assert _orbits(g.n, found) == want, name


# --- pinned outputs of the canonical search --------------------------------


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_golden_canonical_labellings():
    # the positions and automorphisms feed gen's orbits, mining's edge
    # orbits and the split counts, which the certificates alone do not pin
    graphs = [g for n in range(1, 8) for g in connected_graphs(n)]
    assert len(graphs) == 996
    assert _digest(repr(canonical_labelling(g)) for g in graphs) == (
        "81d57b511172d85167046481a45666cb78e61ae69baa5ffd4ae38d48e3b51268"
    )


def test_golden_coloured_certificates():
    # coloured and plain certificates of seeded graphs, disconnected ones
    # included, under palettes with gaps and repeats
    rng = random.Random(20141)
    lines = []
    for _ in range(1000):
        n = rng.randint(1, 9)
        density = rng.random()
        g = Graph.from_edges(
            n,
            [e for e in itertools.combinations(range(n), 2) if rng.random() < density],
        )
        palette = rng.choice(((0,), (0, 1), (0, 1, 2, 5), (3, 7, 7, 9)))
        colors = [rng.choice(palette) for _ in range(n)]
        lines += [repr(certificate(g, colors)), repr(certificate(g))]
    assert _digest(lines) == (
        "c0c2b5f65a6b01280658f718389484832817c0355b18a4be00779db08c94372f"
    )
