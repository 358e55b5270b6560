"""Canonical forms for small graphs.

Iterated degree refinement plus individualization gives an exact
canonical certificate; completeness is cross-checked against brute
force isomorphism in the tests.  Optional vertex colors make the same
machinery work for rooted graphs (roots colored by membership).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .graphs import Graph, RootedGraph


def _refine(g: Graph, colors: tuple[int, ...]) -> tuple[int, ...]:
    while True:
        sigs = []
        for v in range(g.n):
            nb = sorted(colors[u] for u in g.neighbors(v))
            sigs.append((colors[v], tuple(nb)))
        order = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = tuple(order[s] for s in sigs)
        if new == colors:
            return new
        colors = new


def _cells(colors: tuple[int, ...]) -> list[list[int]]:
    by: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        by.setdefault(c, []).append(v)
    return [by[c] for c in sorted(by)]


def _adj_code(g: Graph, perm: Sequence[int]) -> int:
    # perm[i] = old vertex placed at position i
    pos = {v: i for i, v in enumerate(perm)}
    code = 0
    for u, v in g.edges:
        i, j = pos[u], pos[v]
        if i > j:
            i, j = j, i
        code |= 1 << (i * g.n + j)
    return code


def _canon_perm(g: Graph, colors: tuple[int, ...]) -> tuple[int, ...]:
    colors = _refine(g, colors)
    cells = _cells(colors)
    target = next((c for c in cells if len(c) > 1), None)
    if target is None:
        return tuple(v for c in cells for v in c)
    best_perm = None
    best_code = None
    for v in target:
        branched = tuple(c * 2 + (1 if u == v else 0) for u, c in enumerate(colors))
        perm = _canon_perm(g, branched)
        code = _adj_code(g, perm)
        if best_code is None or code < best_code:
            best_code, best_perm = code, perm
    return best_perm


def certificate(g: Graph, colors: Sequence[int] | None = None) -> bytes:
    """Byte string equal across (color-preserving) isomorphic graphs."""
    if colors is None:
        colors = [0] * g.n
    colors = tuple(colors)
    # refinement works on ranks; the certificate keeps the raw color values
    # so that semantically different colorings never collide
    order = {c: i for i, c in enumerate(sorted(set(colors)))}
    base = tuple(order[c] for c in colors)
    perm = _canon_perm(g, base)
    code = _adj_code(g, perm)
    cols = tuple(colors[v] for v in perm)
    return repr((g.n, code, cols)).encode()


def canonical_graph(g: Graph) -> Graph:
    """A canonical representative: relabeling shared by all isomorphic inputs."""
    perm = _canon_perm(g, _refine(g, tuple([0] * g.n)))
    inv = [0] * g.n
    for i, v in enumerate(perm):
        inv[v] = i
    return g.relabel(inv)


def unique(graphs: Iterable[Graph]) -> list[Graph]:
    """One canonical representative per isomorphism class, in certificate order.

    Each input is certified once; only the first of its class is relabeled.
    """
    reps: dict[bytes, Graph] = {}
    for g in graphs:
        c = certificate(g)
        if c not in reps:
            reps[c] = canonical_graph(g)
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
