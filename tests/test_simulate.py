import random

import pytest

from gso.gen import connected_graphs
from gso.graphs import Graph, complete_graph, path_graph, star_graph
from gso.simulate import (
    HostCtx,
    Move,
    Trace,
    is_complete,
    is_monotone,
    p,
    r,
    s,
    simulate,
    width,
)

from conftest import random_connected


def is_connected_trace(t: Trace) -> bool:
    ctx = HostCtx(t.host)
    return all(ctx.edges_connected(ctx.emask(st.clean)) for st in t.steps)


def test_move_constructors():
    assert p(3) == Move("p", 3)
    assert r(1) == Move("r", 1)
    assert s(0, 2) == Move("s", 0, 2)
    with pytest.raises(ValueError):
        Move("x", 0)


def test_path_swept_by_one_searcher():
    g = path_graph(4)
    t = simulate(g, [p(0), s(0, 1), s(1, 2), s(2, 3)])
    assert is_complete(t) and is_monotone(t) and is_connected_trace(t)
    assert width(t) == 1


def test_both_occupied_edge_becomes_clean():
    g = path_graph(2)
    t = simulate(g, [p(0), p(1)])
    assert t.final_clean == frozenset({(0, 1)})
    assert width(t) == 2


def test_slide_wedge_cleans_adjacent_edge():
    # sliding into the center of a cherry also cleans the edge back to
    # the other occupied endpoint
    g = Graph.from_edges(3, [(0, 2), (1, 2)])
    t = simulate(g, [p(0), p(1), s(1, 2)])
    assert t.final_clean == frozenset({(0, 2), (1, 2)})
    assert width(t) == 2


def test_recontamination_through_unguarded_vertex():
    g = star_graph(3)
    t = simulate(g, [p(1), p(0), s(0, 2)])
    # leaving the center exposes the freshly clean edge to the dirty legs
    assert t.steps[-1].recontaminated
    assert not is_monotone(t)


def test_removal_triggers_recontamination():
    g = path_graph(3)
    t = simulate(g, [p(0), s(0, 1), r(1)])
    assert (0, 1) not in t.final_clean
    assert not is_monotone(t)


def test_multiset_occupancy_allows_stacking():
    g = path_graph(2)
    t = simulate(g, [p(0), p(0), s(0, 1)])
    # one searcher stays on 0 while the copy slides, so the edge stays clean
    assert t.final_clean == frozenset({(0, 1)})
    assert is_monotone(t)
    assert width(t) == 2


def test_invalid_slide_rejected():
    g = path_graph(3)
    with pytest.raises(ValueError):
        simulate(g, [p(0), s(0, 2)])  # not an edge
    with pytest.raises(ValueError):
        simulate(g, [s(1, 2)])  # no searcher on 1


def test_clique_cleaning():
    g = complete_graph(3)
    t = simulate(g, [p(0), p(1), s(0, 2)])
    assert is_complete(t) and is_monotone(t)
    assert width(t) == 2


def test_connected_trace_flag():
    g = path_graph(5)
    t = simulate(g, [p(4), s(4, 3), p(0), s(0, 1)])
    assert not is_connected_trace(t)


def brute_closure(g: Graph, ctx: HostCtx, q: int, guard: int) -> int:
    contaminated = set()
    for i in range(ctx.m):
        if not q >> i & 1:
            for v in ctx.edges[i]:
                if not guard >> v & 1:
                    contaminated.add(v)
    changed = True
    while changed:
        changed = False
        for u, v in g.edges:
            for a, b in ((u, v), (v, u)):
                if a in contaminated and not guard >> b & 1 and b not in contaminated:
                    contaminated.add(b)
                    changed = True
    out = q
    for i in range(ctx.m):
        if q >> i & 1 and set(ctx.edges[i]) & contaminated:
            out &= ~(1 << i)
    return out


def brute_flood(g: Graph, ctx: HostCtx, seeds: int, guard: int) -> int:
    """The edges at every vertex that an unguarded path reaches from seeds."""
    region = {v for v in range(g.n) if seeds >> v & 1}
    changed = True
    while changed:
        changed = False
        for u, v in g.edges:
            for a, b in ((u, v), (v, u)):
                if a in region and not guard >> b & 1 and b not in region:
                    region.add(b)
                    changed = True
    return sum(1 << i for i, e in enumerate(ctx.edges) if set(e) & region)


def brute_edges_connected(ctx: HostCtx, emask: int) -> bool:
    """Union-find over the edges of emask: one component, or none."""
    root = list(range(ctx.g.n))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    verts = set()
    for i in range(ctx.m):
        if emask >> i & 1:
            u, v = ctx.edges[i]
            verts |= {u, v}
            root[find(u)] = find(v)
    return len({find(v) for v in verts}) <= 1


def test_closure_matches_brute_force(rng):
    for _ in range(300):
        g = random_connected(rng, 6)
        ctx = HostCtx(g)
        q = rng.getrandbits(ctx.m) if ctx.m else 0
        guard = rng.getrandbits(g.n)
        assert ctx.closure(q, guard) == brute_closure(g, ctx, q, guard)


def test_kernels_match_brute_force_on_all_small_graphs():
    rng = random.Random(5)
    seed_rng = random.Random(6)  # apart, so rng draws the same sets q
    several = 0
    for n in range(1, 6):
        for g in connected_graphs(n):
            ctx = HostCtx(g)
            for guard in range(1 << n):
                both = touched = 0
                for i, (u, v) in enumerate(ctx.edges):
                    if guard >> u & 1 and guard >> v & 1:
                        both |= 1 << i
                    if guard >> u & 1 or guard >> v & 1:
                        touched |= 1 << i
                assert ctx.occupied(guard) == (both, touched)
                free = ((1 << n) - 1) & ~guard
                for seeds in {free} | {seed_rng.getrandbits(n) & free for _ in range(3)}:
                    assert ctx.flood(seeds, guard) == brute_flood(g, ctx, seeds, guard)
                    # the walk's vertices: seeds, and the unguarded ones at its edges
                    reached, edges = ctx.spread(seeds, guard)
                    assert edges == ctx.flood(seeds, guard)
                    assert reached == seeds | ctx.vmask(edges) & ~guard
                    several += seeds.bit_count() > 1
                qs = {0, ctx.full} | {rng.getrandbits(ctx.m) for _ in range(6)}
                for q in qs:
                    got = ctx.closure(q, guard)
                    assert got == brute_closure(g, ctx, q, guard)
                    verts = {v for i in range(ctx.m) if q >> i & 1 for v in ctx.edges[i]}
                    assert ctx.vmask(q) == sum(1 << v for v in verts)
                    assert ctx.edges_connected(q) == brute_edges_connected(ctx, q)
                    # the walk behind it: the vertices of a connected q, else 0
                    if q:
                        want = ctx.vmask(q) if brute_edges_connected(ctx, q) else 0
                        assert ctx.connected_vmask(q) == want
                    # a connected q grown by edges disjoint from it
                    if q and ctx.edges_connected(q):
                        new = rng.getrandbits(ctx.m) & ~q
                        grown = ctx.joined(ctx.vmask(q), new)
                        assert bool(grown) == brute_edges_connected(ctx, q | new)
                        # a yes carries the vertices of q | new
                        assert grown in (0, ctx.vmask(q | new))
    assert several > 1_000


def test_flood_rows_match_flood_on_all_small_graphs():
    for n in range(1, 7):
        for g in connected_graphs(n):
            ctx = HostCtx(g)
            for guard in range(1 << n):
                row = ctx.floods(guard)
                assert ctx.floods(guard) is row
                for v in range(n):
                    want = 0 if guard >> v & 1 else ctx.flood(1 << v, guard)
                    assert row[v] == want, (g, guard, v)
