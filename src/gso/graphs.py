"""Small simple undirected graphs with bitmask adjacency.

Vertices are always 0..n-1.  Edges are normalized (u, v) tuples with u < v.
Everything here is immutable and cheap to hash, which the solvers rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

Edge = tuple[int, int]


def norm_edge(u: int, v: int) -> Edge:
    if u == v:
        raise ValueError(f"loop edge ({u},{v}) not allowed")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    n: int
    adj: tuple[int, ...]  # adj[v] = bitmask of neighbours of v

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            u, v = norm_edge(u, v)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj))

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        out = []
        for u in range(self.n):
            m = self.adj[u] >> (u + 1)
            v = u + 1
            while m:
                if m & 1:
                    out.append((u, v))
                m >>= 1
                v += 1
        return tuple(out)

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> Iterator[int]:
        m = self.adj[v]
        while m:
            low = m & -m
            yield low.bit_length() - 1
            m ^= low

    def component_mask(self, start: int, allowed: int | None = None) -> int:
        """Bitmask of the component of `start` inside the vertex mask `allowed`."""
        if allowed is None:
            allowed = (1 << self.n) - 1
        seen = 1 << start
        frontier = seen
        while frontier:
            nxt = 0
            m = frontier
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                nxt |= self.adj[v]
            frontier = nxt & allowed & ~seen
            seen |= frontier
        return seen

    def is_connected(self, allowed: int | None = None) -> bool:
        """Does the vertex mask `allowed` (default: every vertex) induce a
        connected subgraph?  The empty mask does."""
        if allowed is None:
            allowed = (1 << self.n) - 1
        if not allowed:
            return True
        start = (allowed & -allowed).bit_length() - 1
        return self.component_mask(start, allowed) == allowed

    def components(self, allowed: int | None = None) -> list[int]:
        """Vertex bitmasks of the connected components of the subgraph
        induced by the vertex mask `allowed` (default: every vertex),
        ordered by their lowest vertex."""
        out = []
        left = (1 << self.n) - 1 if allowed is None else allowed
        while left:
            v = (left & -left).bit_length() - 1
            comp = self.component_mask(v, left)
            out.append(comp)
            left &= ~comp
        return out

    def is_forest(self, allowed: int | None = None) -> bool:
        """Is the subgraph induced by the vertex mask `allowed` (default:
        every vertex) acyclic?  It is when its edges number its vertices
        less its components."""
        if allowed is None:
            allowed = (1 << self.n) - 1
        ends = 0
        m = allowed
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            ends += (self.adj[v] & allowed).bit_count()
        return ends // 2 == allowed.bit_count() - len(self.components(allowed))

    def induced(self, vertices: Sequence[int]) -> tuple["Graph", dict[int, int]]:
        """Induced subgraph on `vertices`; returns it plus old->new id map."""
        vs = sorted(set(vertices))
        idx = {v: i for i, v in enumerate(vs)}
        edges = [(idx[u], idx[v]) for u, v in self.edges if u in idx and v in idx]
        return Graph.from_edges(len(vs), edges), idx

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """New graph where old vertex v becomes perm[v]."""
        return Graph.from_edges(self.n, [(perm[u], perm[v]) for u, v in self.edges])


def component_graphs(g: Graph) -> list[Graph]:
    """The induced subgraph of each connected component of g, in
    `Graph.components` order; [g] itself when g is connected."""
    if g.is_connected():
        return [g]
    return [
        g.induced([v for v in range(g.n) if mask >> v & 1])[0]
        for mask in g.components()
    ]


def _merged_ids(n: int, u: int, v: int) -> list[int]:
    """The id of each of n vertices after contracting edge (u, v), u < v:
    the merged vertex keeps id u; v disappears and the ids above shift down."""
    return [u if x == v else x - (x > v) for x in range(n)]


def contract_edge(g: Graph, e: tuple[int, int]) -> Graph:
    """g with edge e merged into its lower end, ids as `_merged_ids` gives.

    Each row drops bit v, shifts the bits above it down by one and gains
    bit u where it had bit v; the merged row is adj[u] | adj[v] less u
    and v, shifted alike."""
    u, v = norm_edge(*e)
    if not g.has_edge(u, v):
        raise ValueError(f"no such edge ({u},{v})")
    low = (1 << v) - 1  # the bits below v, which keep their place
    bit_u, bit_v = 1 << u, 1 << v
    rows = []
    for x, row in enumerate(g.adj):
        if x == v:
            continue
        if x == u:
            row = (row | g.adj[v]) & ~(bit_u | bit_v)
        elif row & bit_v:
            row |= bit_u
        rows.append((row & low) | (row >> 1 & ~low))
    return Graph(g.n - 1, tuple(rows))


@dataclass(frozen=True)
class RootedGraph:
    graph: Graph
    s_in: frozenset[int] = frozenset()
    s_out: frozenset[int] = frozenset()

    def __post_init__(self):
        n = self.graph.n
        object.__setattr__(self, "s_in", frozenset(self.s_in))
        object.__setattr__(self, "s_out", frozenset(self.s_out))
        for v in self.s_in | self.s_out:
            if not 0 <= v < n:
                raise ValueError(f"root vertex {v} not in graph")
        if not self.graph.is_connected():
            raise ValueError("rooted graph must be connected")

    def root_colors(self) -> list[int]:
        """The colour of each vertex: 1 if it is in S_in, plus 2 if in S_out."""
        return [
            (1 if v in self.s_in else 0) | (2 if v in self.s_out else 0)
            for v in range(self.graph.n)
        ]


def rev(rg: RootedGraph) -> RootedGraph:
    return RootedGraph(rg.graph, rg.s_out, rg.s_in)


def doubly_rooted(g: Graph, v: int) -> RootedGraph:
    return RootedGraph(g, frozenset({v}), frozenset({v}))


def contract_edge_rooted(rg: RootedGraph, e: tuple[int, int]) -> RootedGraph:
    u, v = norm_edge(*e)
    to = _merged_ids(rg.graph.n, u, v)
    return RootedGraph(
        contract_edge(rg.graph, (u, v)),
        frozenset(to[x] for x in rg.s_in),
        frozenset(to[x] for x in rg.s_out),
    )


@dataclass(frozen=True)
class Enhancement:
    """The rooted graph plus apex vertices u_in/u_out wired to the roots.

    e_start is the rooted start both solver engines search from: E_in
    plus the edges inside S_in, clean before the first move.
    """

    base: RootedGraph
    host: Graph
    u_in: int
    u_out: int
    e_in: frozenset[Edge]
    e_out: frozenset[Edge]
    e_start: frozenset[Edge]


def enhance(rg: RootedGraph) -> Enhancement:
    n = rg.graph.n
    u_in, u_out = n, n + 1
    edges = list(rg.graph.edges)
    e_in = frozenset(norm_edge(u_in, v) for v in rg.s_in)
    e_out = frozenset(norm_edge(u_out, v) for v in rg.s_out)
    host = Graph.from_edges(n + 2, edges + sorted(e_in) + sorted(e_out))
    e_start = e_in | frozenset(
        (u, v) for u, v in edges if u in rg.s_in and v in rg.s_in
    )
    return Enhancement(rg, host, u_in, u_out, e_in, e_out, e_start)


@dataclass(frozen=True)
class Part:
    """A rooted piece over global vertex labels, used as glue() input.

    Labels are arbitrary non-negative ints shared across parts; isolated
    root vertices are legal, so the vertex set is explicit.
    """

    vertices: frozenset[int]
    edges: frozenset[Edge]
    s_in: frozenset[int]
    s_out: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "vertices", frozenset(self.vertices))
        object.__setattr__(self, "edges", frozenset(norm_edge(*e) for e in self.edges))
        object.__setattr__(self, "s_in", frozenset(self.s_in))
        object.__setattr__(self, "s_out", frozenset(self.s_out))
        for e in self.edges:
            if not set(e) <= self.vertices:
                raise ValueError(f"edge {e} not within part vertices")
        if not (self.s_in <= self.vertices and self.s_out <= self.vertices):
            raise ValueError("roots must be part vertices")

    @classmethod
    def from_rooted(cls, rg: RootedGraph, labels: Sequence[int]) -> "Part":
        if len(labels) != rg.graph.n:
            raise ValueError("label count mismatch")
        edges = frozenset(norm_edge(labels[u], labels[v]) for u, v in rg.graph.edges)
        return cls(
            frozenset(labels),
            edges,
            frozenset(labels[v] for v in rg.s_in),
            frozenset(labels[v] for v in rg.s_out),
        )


def glue(parts: Sequence[Part]) -> tuple[RootedGraph, dict[int, int]]:
    """Chain parts whose consecutive overlap is exactly out-roots = in-roots.

    Returns the glued rooted graph (relabelled to 0..n-1 by sorted label)
    together with the label -> vertex id map.
    """
    if not parts:
        raise ValueError("glue needs at least one part")
    for a, b in zip(parts, parts[1:]):
        overlap = a.vertices & b.vertices
        if not (overlap == a.s_out == b.s_in):
            raise ValueError(
                f"glue precondition: overlap {sorted(overlap)} vs "
                f"s_out {sorted(a.s_out)} / s_in {sorted(b.s_in)}"
            )
    labels = sorted(set().union(*(p.vertices for p in parts)))
    idx = {lab: i for i, lab in enumerate(labels)}
    edges = {norm_edge(idx[u], idx[v]) for p in parts for u, v in p.edges}
    g = Graph.from_edges(len(labels), edges)
    rg = RootedGraph(
        g,
        frozenset(idx[v] for v in parts[0].s_in),
        frozenset(idx[v] for v in parts[-1].s_out),
    )
    return rg, idx


# handy constructors, mostly for tests and the paper families

def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i + 1) for i in range(leaves)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def k23_plus() -> Graph:
    """K_2,3 with the two degree-3 vertices joined."""
    g = complete_bipartite(2, 3)
    return Graph.from_edges(5, list(g.edges) + [(0, 1)])
