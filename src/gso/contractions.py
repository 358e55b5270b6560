"""Contraction (every class pair adjacency exact) and minor containment.

Both relations are decided by enumerating partitions of the host's
vertices into connected classes and matching the quotient against the
pattern.  Exponential, but it only ever runs on small graphs; a node
budget turns runaway searches into a distinct error.  No library path
calls `is_contraction`, `is_minor`, `contains_any` or
`proper_contractions`: they are the tests' oracle, kept here while the
benchmark wraps them (`verify_obr` names the contraction classes of a
glued family by its branches instead).  `is_outerplanar` lives in
`gso.blocks` and is re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .blocks import is_outerplanar  # noqa: F401
from .canon import canonical_labelling, unique
from .gen import _edge_orbit_mins
from .graphs import Graph, RootedGraph, contract_edge
from .solvers import BudgetExceeded


@dataclass(frozen=True)
class ContractionWitness:
    phi: tuple[int, ...]  # phi[v in host] = pattern vertex


def _as_rooted(x) -> RootedGraph:
    return x if isinstance(x, RootedGraph) else RootedGraph(x)


def _partitions(g: Graph, parts: int, budget: list[int] | None) -> Iterator[tuple[int, ...]]:
    """Partitions of V(g) into `parts` connected nonempty classes.

    Yields class-id-per-vertex tuples in restricted-growth form.
    """
    n = g.n
    assign = [0] * n
    members = [0] * parts  # vertex bitmask per class

    def rec(v: int, used: int) -> Iterator[tuple[int, ...]]:
        if budget is not None:
            budget[0] -= 1
            if budget[0] < 0:
                raise BudgetExceeded("partition budget exhausted")
        if v == n:
            if used == parts and all(g.is_connected(m) for m in members):
                yield tuple(assign)
            return
        # must still be able to open the remaining classes
        if parts - used > n - v:
            return
        hi = min(used + 1, parts)
        for c in range(hi):
            assign[v] = c
            opened = c == used
            members[c] |= 1 << v
            yield from rec(v + 1, used + 1 if opened else used)
            members[c] &= ~(1 << v)
        assign[v] = 0

    yield from rec(0, 0)


def _quotient_adj(g: Graph, assign: tuple[int, ...], parts: int) -> list[int]:
    adj = [0] * parts
    for u, v in g.edges:
        a, b = assign[u], assign[v]
        if a != b:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    return adj


def _match(
    q_adj: list[int],
    q_colors: list[int],
    h: Graph,
    h_colors: list[int],
    h_degs: list[int],
    exact: bool,
) -> tuple[int, ...] | None:
    """Bijection psi: quotient class -> V(h); exact adjacency for the
    contraction relation, h-edges-only containment for the minor relation.

    A class can only map to a vertex of its colour whose degree equals
    (minor: is at most) the class's quotient degree, so other vertices
    are never tried; they belong to no bijection, so the first one found
    is the one a search over all vertices finds.
    """
    parts = len(q_adj)
    if parts != h.n:
        return None
    q_degs = [a.bit_count() for a in q_adj]
    if exact and sorted(zip(q_colors, q_degs)) != sorted(zip(h_colors, h_degs)):
        return None
    cands = [
        [
            w
            for w in range(h.n)
            if h_colors[w] == q_colors[c]
            and (h_degs[w] == q_degs[c] if exact else h_degs[w] <= q_degs[c])
        ]
        for c in range(parts)
    ]
    psi = [-1] * parts
    return tuple(psi) if _extend(0, psi, 0, cands, q_adj, h.adj, exact) else None


def _extend(
    c: int,
    psi: list[int],
    taken: int,
    cands: list[list[int]],
    q_adj: list[int],
    h_adj: tuple[int, ...],
    exact: bool,
) -> bool:
    """Extend psi[:c] to all classes; `taken` is the bitmask of its image."""
    if c == len(psi):
        return True
    qa = q_adj[c]
    for w in cands[c]:
        if taken >> w & 1:
            continue
        hw = h_adj[w]
        ok = True
        for c2 in range(c):
            q_edge = qa >> c2 & 1
            h_edge = hw >> psi[c2] & 1
            if (q_edge != h_edge) if exact else (h_edge > q_edge):
                ok = False
                break
        if ok:
            psi[c] = w
            if _extend(c + 1, psi, taken | 1 << w, cands, q_adj, h_adj, exact):
                return True
    return False


def _decide(h: RootedGraph, g: RootedGraph, exact: bool, budget: int | None) -> ContractionWitness | None:
    hg, gg = h.graph, g.graph
    if hg.n > gg.n:
        return None
    h_colors = h.root_colors()
    h_degs = [hg.degree(v) for v in range(hg.n)]
    bud = [budget] if budget is not None else None
    for assign in _partitions(gg, hg.n, bud):
        q_adj = _quotient_adj(gg, assign, hg.n)
        q_colors = [0] * hg.n
        for v in g.s_in:
            q_colors[assign[v]] |= 1
        for v in g.s_out:
            q_colors[assign[v]] |= 2
        psi = _match(q_adj, q_colors, hg, h_colors, h_degs, exact)
        if psi is not None:
            return ContractionWitness(tuple(psi[assign[v]] for v in range(gg.n)))
    return None


def is_contraction(h, g, budget: int | None = None) -> ContractionWitness | None:
    """Witness that h is a contraction of g (h obtainable by contracting
    edges of g), respecting roots when the inputs are rooted."""
    return _decide(_as_rooted(h), _as_rooted(g), exact=True, budget=budget)


def is_minor(h, g, budget: int | None = None) -> ContractionWitness | None:
    return _decide(_as_rooted(h), _as_rooted(g), exact=False, budget=budget)


def contains_any(g, family, relation: str = "contraction", budget: int | None = None) -> bool:
    test = is_contraction if relation == "contraction" else is_minor
    return any(test(member, g, budget=budget) is not None for member in family)


def proper_contractions(g: Graph) -> list[Graph]:
    """All single-edge contractions of g, one per isomorphism class, in
    certificate order.  An automorphism maps an edge's contraction onto
    its image's, so one edge per orbit is contracted."""
    edges = _edge_orbit_mins(g, canonical_labelling(g)[2])
    return unique(contract_edge(g, e) for e in edges)

