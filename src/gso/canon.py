"""Canonical forms for small graphs.

Iterated degree refinement plus individualization gives an exact
canonical certificate; completeness is cross-checked against brute
force isomorphism in the tests.  Optional vertex colors make the same
machinery work for rooted graphs (roots colored by membership).

The individualization tree is searched depth first and pruned with the
automorphisms its equal leaves reveal (McKay & Piperno, "Practical graph
isomorphism, II", 2014): a subtree that is the image of an explored one
under an automorphism holds the same leaves, so it is skipped.  The
first least leaf is never skipped, so the certificate bytes and the
canonical relabeling are the ones the unpruned search gives.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .graphs import Graph, RootedGraph


def _refine(
    nbrs: Sequence[list[int]], colors: tuple[int, ...]
) -> tuple[tuple[int, ...], int]:
    """The coarsest equitable refinement, as ranks, and its number of cells."""
    cells = len(set(colors))
    while True:
        sigs = [
            (colors[v], tuple(sorted([colors[u] for u in nb])))
            for v, nb in enumerate(nbrs)
        ]
        ranked = sorted(set(sigs))
        order = {s: i for i, s in enumerate(ranked)}
        new = tuple(order[s] for s in sigs)
        # no cell split: `new` only renumbers the colours, so another pass
        # would return it unchanged
        if len(ranked) == cells:
            return new, cells
        colors, cells = new, len(ranked)


def _adj_code(edges: Sequence[tuple[int, int]], pos: Sequence[int]) -> int:
    """Upper-triangle adjacency bits with vertex v placed at position pos[v]."""
    n = len(pos)
    code = 0
    for u, v in edges:
        i, j = pos[u], pos[v]
        if i > j:
            i, j = j, i
        code |= 1 << (i * n + j)
    return code


Leaf = tuple[int, tuple[int, ...]]  # (adjacency code, position of each vertex)


def _search(
    nbrs: Sequence[list[int]],
    edges: Sequence[tuple[int, int]],
    colors: tuple[int, ...],
    path: list[int],
    best: Leaf | None,
    autos: list[tuple[int, ...]],
) -> Leaf:
    """Depth-first search of the subtree reached by individualising `path`.

    Returns the first leaf with the least code seen so far (`best` is the
    one before this subtree).  A leaf whose code ties `best` yields an
    automorphism, appended to `autos`; a child in the orbit of an explored
    child under the automorphisms fixing `path` is skipped, since its
    subtree is the image of the explored one and holds the same codes.
    """
    colors, k = _refine(nbrs, colors)
    n = len(colors)
    if k == n:  # a leaf: each vertex's colour is its position
        code = _adj_code(edges, colors)
        if best is None or code < best[0]:
            return code, colors
        if code == best[0]:
            perm = [0] * n
            for v, i in enumerate(colors):
                perm[i] = v
            autos.append(tuple(perm[i] for i in best[1]))
        return best
    # individualise each vertex of the first cell that is not a singleton
    first = next(c for c in range(k) if colors.count(c) > 1)
    target = [v for v, c in enumerate(colors) if c == first]
    # orbit ids on the target cell, which automorphisms fixing `path` preserve
    orbit = {v: v for v in target}
    used = 0
    explored: list[int] = []
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
        best = _search(nbrs, edges, branched, path, best, autos)
        path.pop()
    return best


def _canon(g: Graph, colors: tuple[int, ...]) -> Leaf:
    """Least adjacency code over the individualisation tree, and its first leaf."""
    # lists, not tuples: tuple() of a generator is resized to fit, so it is
    # not taken from the interpreter's small-tuple free lists but joins them
    # when freed; they then stay full (about 0.4 MB more peak memory)
    nbrs = [list(g.neighbors(v)) for v in range(g.n)]
    return _search(nbrs, g.edges, colors, [], None, [])


def certificate(g: Graph, colors: Sequence[int] | None = None) -> bytes:
    """Byte string equal across (color-preserving) isomorphic graphs."""
    if colors is None:
        colors = [0] * g.n
    colors = tuple(colors)
    # refinement works on ranks; the certificate keeps the raw color values
    # so that semantically different colorings never collide
    order = {c: i for i, c in enumerate(sorted(set(colors)))}
    base = tuple(order[c] for c in colors)
    code, pos = _canon(g, base)
    cols = [0] * g.n
    for v, i in enumerate(pos):
        cols[i] = colors[v]
    return repr((g.n, code, tuple(cols))).encode()


def canonical_graph(g: Graph) -> Graph:
    """A canonical representative: relabeling shared by all isomorphic inputs."""
    return g.relabel(_canon(g, (0,) * g.n)[1])


def canonical_certificate(c: Graph) -> bytes:
    """`certificate(c)` for a graph already in canonical form, without a search.

    The canonical relabeling puts the graph at its least leaf, so its own
    adjacency code in identity order is the code `certificate` reports.
    """
    n = c.n
    # identity-order `_adj_code`, read off the rows so that `c.edges` is
    # not built and cached on every representative
    code = sum((row >> (i + 1)) << (i * n + i + 1) for i, row in enumerate(c.adj))
    return repr((n, code, (0,) * n)).encode()


def unique(graphs: Iterable[Graph]) -> list[Graph]:
    """One canonical representative per isomorphism class, in certificate order.

    Each input is searched once, by `canonical_graph`.
    """
    reps: dict[bytes, Graph] = {}
    for g in graphs:
        c = canonical_graph(g)
        reps.setdefault(canonical_certificate(c), c)
    return [reps[c] for c in sorted(reps)]


def is_isomorphic(g: Graph, h: Graph) -> bool:
    if (g.n, g.m) != (h.n, h.m):
        return False
    return certificate(g) == certificate(h)


def rooted_certificate(rg: RootedGraph) -> bytes:
    colors = [
        (1 if v in rg.s_in else 0) | (2 if v in rg.s_out else 0)
        for v in range(rg.graph.n)
    ]
    return certificate(rg.graph, colors)


def is_rooted_isomorphic(a: RootedGraph, b: RootedGraph) -> bool:
    return rooted_certificate(a) == rooted_certificate(b)
