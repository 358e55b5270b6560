"""Connected graph enumeration, one representative per isomorphism class.

Each n-vertex connected graph is reached by attaching a new vertex to a
nonempty neighbour subset of some connected (n-1)-vertex graph (every
connected graph has a non-cut vertex), deduplicated by certificate.
Subsets that an automorphism of the parent maps onto each other give
isomorphic children, so only the first subset of each orbit under the
automorphisms `canon.automorphisms` finds is attached (McKay,
"Isomorph-free exhaustive generation", J. Algorithms 26, 1998); `unique`
keeps one canonical graph per class in certificate order, so the output
is the one the unpruned loop gives.  Results are cached per size since
several acceptance checks sweep the same ranges.

Only the checklist reads it: checks 3, 4, 8 and 9 directly, and checks
6 and 7 through the fan and branch bases, all at n <= 7.  Obstruction
mining splits the good graphs instead (`obstructions.mine_obstructions`).
"""

from __future__ import annotations

from .canon import automorphisms, unique
from .graphs import Graph

_cache: dict[int, tuple[Graph, ...]] = {}


def _subset_orbit_reps(n: int, autos: list[tuple[int, ...]]) -> list[int]:
    """The least nonempty vertex mask over range(n) in each orbit of the
    group the permutations `autos` generate, in increasing order."""
    seen = 0  # bit s: subset s is in an orbit already met
    reps = []
    for s in range(1, 1 << n):
        if seen >> s & 1:
            continue
        reps.append(s)
        seen |= 1 << s
        todo = [s]
        while todo:
            t = todo.pop()
            for perm in autos:
                img = 0
                for v in range(n):
                    if t >> v & 1:
                        img |= 1 << perm[v]
                if not seen >> img & 1:
                    seen |= 1 << img
                    todo.append(img)
    return reps


def _children(g: Graph):
    """g plus a new vertex n-1, once per orbit of its neighbour subset."""
    n = g.n
    new = 1 << n
    for nb in _subset_orbit_reps(n, automorphisms(g)):
        adj = list(g.adj)
        m = nb
        while m:
            low = m & -m
            m ^= low
            adj[low.bit_length() - 1] |= new
        adj.append(nb)
        yield Graph(n + 1, tuple(adj))


def connected_graphs(n: int) -> tuple[Graph, ...]:
    if n < 1:
        raise ValueError("n must be positive")
    if n in _cache:
        return _cache[n]
    if n == 1:
        out = (Graph.from_edges(1, []),)
    else:
        out = tuple(unique(c for g in connected_graphs(n - 1) for c in _children(g)))
    _cache[n] = out
    return out
