"""Mixed-search simulator.

Moves are place p(v), remove r(v), slide s(v,u).  After each move the
newly cleaned edges are those with both endpoints occupied plus the
sliding edge; the closure then recontaminates every clean edge that
can reach a contaminated edge along a path whose connecting vertices
are all unguarded.  `HostCtx` holds a host's bitmask kernels:
`occupied` gives the edges a searcher set cleans and touches, `closure`
the clean set that survives, and `flood` the closure's loss when
recontamination can start only at the vertex a move vacates, which is
all a game state reachable from a stable start can lose.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .graphs import Edge, Graph, norm_edge


@dataclass(frozen=True)
class Move:
    kind: str  # "p" | "r" | "s"
    v: int
    u: int | None = None

    def __post_init__(self):
        if self.kind not in ("p", "r", "s"):
            raise ValueError(f"unknown move kind {self.kind!r}")
        if (self.kind == "s") != (self.u is not None):
            raise ValueError("slide needs a target vertex, p/r must not have one")


def p(v: int) -> Move:
    return Move("p", v)


def r(v: int) -> Move:
    return Move("r", v)


def s(v: int, u: int) -> Move:
    return Move("s", v, u)


class HostCtx:
    """Precomputed bitmask tables for one host graph.

    Edges are bits 0..m-1 in `edges` order, vertices bits 0..n-1, and
    inc[v] is the mask of the edges at v.  The per-move kernels work
    vertex by vertex through inc, never edge by edge:

    * occupied(p) = (the edges with both ends in p, the edges with an
      end in p): OR-ing inc over p gives the second, and an edge is met
      twice on the way, so the first is the running overlap of the seen
      mask with each new inc[v], in |p| steps.
    * closure(q, guard): the contaminated region W is every unguarded
      vertex at a dirty edge (not in q), grown along adj through
      unguarded vertices; the edges lost are q & inc(W), the union of
      inc[v] over v in W.
    * flood(v, guard) is what closure loses when v, unguarded, is the
      only unguarded vertex with both clean and dirty edges: the edges
      at every vertex that unguarded paths reach from v.  Any other
      seed vertex has only dirty edges, so the region grown from it
      stays on dirty edges unless it meets v.
    * joined(vmask(c), new) = edges_connected(c | new) for a connected,
      nonempty c disjoint from new, in passes over new alone: a search
      whose sets only grow and stay connected tests just the edges a
      move adds.
    """

    def __init__(self, g: Graph):
        self.g = g
        self.edges = g.edges
        self.eidx = {e: i for i, e in enumerate(self.edges)}
        self.m = len(self.edges)
        self.full = (1 << self.m) - 1
        self.ev = tuple((1 << u) | (1 << v) for u, v in self.edges)
        inc = [0] * g.n
        for i, (u, v) in enumerate(self.edges):
            inc[u] |= 1 << i
            inc[v] |= 1 << i
        self.inc = tuple(inc)
        self.adj = g.adj

    @cached_property
    def vinc(self) -> tuple[tuple[int, int], ...]:
        """(bit of v, inc[v]) for every vertex v: the loop that seeds `closure`."""
        return tuple((1 << v, iv) for v, iv in enumerate(self.inc))

    @cached_property
    def slides(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """slides[v]: (u, index of edge vu) for every neighbour u of v, in
        `Graph.neighbors` order."""
        return tuple(
            tuple((u, self.eidx[norm_edge(v, u)]) for u in self.g.neighbors(v))
            for v in range(self.g.n)
        )

    @cached_property
    def game_moves(self) -> dict:
        """The game solver's move tables, keyed (searcher mask, guard) and
        filled by `solvers._moves`: every solve on this host shares them."""
        return {}

    @cached_property
    def connected_sets(self) -> dict[int, bool]:
        """`edges_connected` of the clean sets the game solver tested in
        full, keyed by edge mask: every solve on this host shares it."""
        return {}

    def emask(self, edges: Iterable[Edge]) -> int:
        m = 0
        for e in edges:
            m |= 1 << self.eidx[norm_edge(*e)]
        return m

    def eset(self, mask: int) -> frozenset[Edge]:
        return frozenset(self.edges[i] for i in range(self.m) if mask >> i & 1)

    def occupied(self, pmask: int) -> tuple[int, int]:
        """(edges with both ends in the vertex mask pmask, edges with an
        end in pmask)."""
        both = seen = 0
        inc = self.inc
        while pmask:
            low = pmask & -pmask
            pmask ^= low
            iv = inc[low.bit_length() - 1]
            both |= seen & iv
            seen |= iv
        return both, seen

    def closure(self, q: int, guard: int) -> int:
        """Clean set surviving recontamination from E(host) minus q."""
        dirty = self.full & ~q
        if dirty == 0:
            return q
        w = 0
        for bit, iv in self.vinc:
            if iv & dirty:
                w |= bit
        free = ~guard
        w &= free
        adj = self.adj
        frontier = w
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                nxt |= adj[low.bit_length() - 1]
            frontier = nxt & free & ~w
            w |= frontier
        inc = self.inc
        lost = 0
        while w:
            low = w & -w
            w ^= low
            lost |= inc[low.bit_length() - 1]
        return q & ~lost

    def flood(self, v: int, guard: int) -> int:
        """The edges at the vertices that unguarded paths reach from the
        unguarded vertex v: what closure(q, guard) loses when v is the one
        unguarded vertex with both a clean and a dirty edge in q."""
        free = ~guard
        adj, inc = self.adj, self.inc
        w = frontier = 1 << v
        out = 0
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                x = low.bit_length() - 1
                nxt |= adj[x]
                out |= inc[x]
            frontier = nxt & free & ~w
            w |= frontier
        return out

    def vmask(self, emask: int) -> int:
        """Vertex mask of the edge set emask: the vertices at one of its edges."""
        out = 0
        for v, iv in enumerate(self.inc):
            if iv & emask:
                out |= 1 << v
        return out

    def joined(self, verts: int, new: int) -> bool:
        """Does every edge of new reach the vertex mask verts through
        edges of new?  For a connected edge set c with vmask(c) == verts
        and new disjoint from c, this is edges_connected(c | new), in a
        few passes over new alone."""
        ev = self.ev
        while new:
            left = new
            m = new
            while m:
                low = m & -m
                m ^= low
                e = ev[low.bit_length() - 1]
                if e & verts:
                    verts |= e
                    left ^= low
            if left == new:
                return False
            new = left
        return True

    def edges_connected(self, emask: int) -> bool:
        """Do the edges in emask induce a connected subgraph?"""
        if emask == 0:
            return True
        first = (emask & -emask).bit_length() - 1
        verts = self.ev[first]
        seen = 1 << first
        frontier = 1 << first
        while frontier:
            nxt = 0
            vm = 0
            mm = frontier
            while mm:
                i = (mm & -mm).bit_length() - 1
                mm &= mm - 1
                vm |= self.ev[i]
            verts |= vm
            m2 = vm
            while m2:
                v = (m2 & -m2).bit_length() - 1
                m2 &= m2 - 1
                nxt |= self.inc[v]
            frontier = nxt & emask & ~seen
            seen |= frontier
        return seen == emask


@dataclass(frozen=True)
class Step:
    move: Move
    positions: tuple[int, ...]  # sorted multiset of occupied vertices
    clean: frozenset[Edge]  # E(S,i)
    sliding: Edge | None
    recontaminated: bool


@dataclass(frozen=True)
class Trace:
    host: Graph
    steps: tuple[Step, ...]

    @property
    def final_clean(self) -> frozenset[Edge]:
        return self.steps[-1].clean if self.steps else frozenset()

    def clean_sets(self) -> list[frozenset[Edge]]:
        return [st.clean for st in self.steps]


def simulate(g: Graph, moves: Sequence[Move]) -> Trace:
    ctx = HostCtx(g)
    occ = Counter()
    clean = 0
    steps = []
    for i, mv in enumerate(moves):
        sliding = None
        if mv.kind == "p":
            if not 0 <= mv.v < g.n:
                raise ValueError(f"step {i}: vertex {mv.v} out of range")
            occ[mv.v] += 1
        elif mv.kind == "r":
            if occ[mv.v] <= 0:
                raise ValueError(f"step {i}: remove from unoccupied vertex {mv.v}")
            occ[mv.v] -= 1
        else:
            if occ[mv.v] <= 0:
                raise ValueError(f"step {i}: slide from unoccupied vertex {mv.v}")
            if not g.has_edge(mv.v, mv.u):
                raise ValueError(f"step {i}: slide along non-edge ({mv.v},{mv.u})")
            occ[mv.v] -= 1
            occ[mv.u] += 1
            sliding = norm_edge(mv.v, mv.u)
        pmask = 0
        for v, c in occ.items():
            if c > 0:
                pmask |= 1 << v
        newly = ctx.occupied(pmask)[0]
        if sliding is not None:
            newly |= 1 << ctx.eidx[sliding]
        q = clean | newly
        clean = ctx.closure(q, pmask)
        steps.append(
            Step(
                mv,
                tuple(sorted(v for v in occ.elements())),
                ctx.eset(clean),
                sliding,
                clean != q,
            )
        )
    return Trace(g, tuple(steps))


def width(t: Trace) -> int:
    return max((len(st.positions) for st in t.steps), default=0)


def is_complete(t: Trace) -> bool:
    return t.final_clean == frozenset(t.host.edges)


def is_monotone(t: Trace) -> bool:
    return not any(st.recontaminated for st in t.steps)
