"""Blocks, cut vertices, and outerplanar face structure.

Block classes: hair (trivial block with a degree-1 endpoint), bridge
(other trivial blocks), cycle (chordless non-trivial), essential
(non-trivial with a chord).  A cut vertex is light when it is the cut
vertex of exactly one hair block, heavy otherwise.

This module is where outerplanarity is decided.  A graph is
outerplanar when each of its blocks is.  A 2-connected outerplanar
block has exactly one Hamiltonian cycle, its outer face, and no two of
its chords cross on that cycle; conversely a Hamiltonian cycle whose
chords do not cross draws the block with every vertex on the outer
face.  So the first Hamiltonian cycle found decides the block: it is
the outer cycle when its chords do not cross, and the block is not
outerplanar when they do.

The embedding of a 2-connected outerplanar block is unique, so its
bounded faces can be read off the outer cycle plus the non-crossing
chord intervals; a face is haploid when at most one of its edges is a
chord.  Chords and faces are computed only when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .graphs import Edge, Graph, norm_edge


@dataclass(frozen=True)
class Face:
    edges: frozenset[Edge]
    haploid: bool


@dataclass(frozen=True)
class Block:
    vertices: frozenset[int]
    edges: frozenset[Edge]
    kind: str  # hair | bridge | cycle | essential
    outer_cycle: tuple[int, ...] | None = None  # None unless 2-connected outerplanar

    @cached_property
    def chords(self) -> frozenset[Edge] | None:
        if self.outer_cycle is None:
            return None
        cyc = self.outer_cycle
        sides = {norm_edge(cyc[i - 1], cyc[i]) for i in range(len(cyc))}
        return self.edges - sides

    @cached_property
    def faces(self) -> tuple[Face, ...] | None:
        if self.outer_cycle is None:
            return None
        return _faces(self.outer_cycle, self.edges)


@dataclass(frozen=True)
class BlockDecomposition:
    blocks: tuple[Block, ...]
    cut_vertices: frozenset[int]
    weights: dict[int, str]  # cut vertex -> light | heavy


def _block_masks(g: Graph) -> list[int]:
    """Vertex masks of the blocks of g, each component split by its cut
    vertices.

    A connected mask that no vertex cuts is a block, or a lone vertex.
    Any other mask splits at its least cut vertex v: every block lies
    inside one component of the mask minus v, with v added back, and is
    a block there too.  The pieces wait on an explicit stack, so a deep
    block tree never nests calls.
    """
    out = []
    stack = g.components()
    while stack:
        mask = stack.pop()
        m = mask
        while m:
            low = m & -m
            m ^= low
            parts = g.components(mask ^ low)
            if len(parts) > 1:
                stack.extend(part | low for part in parts)
                break
        else:
            if mask & (mask - 1):
                out.append(mask)
    return out


def blocks_and_cuts(g: Graph) -> BlockDecomposition:
    """Blocks and cut vertices of a connected graph with an edge.

    A block is an induced subgraph: an edge joining two vertices of a
    2-connected subgraph leaves it 2-connected, so a maximal one holds
    every edge of g between its vertices.
    """
    if not g.is_connected():
        raise ValueError("block decomposition requires a connected graph")
    if g.m < 1:
        raise ValueError("block decomposition requires at least one edge")
    blocks = []
    seen: dict[int, int] = {}  # vertex -> number of blocks containing it
    for mask in _block_masks(g):
        vs = frozenset(v for v in range(g.n) if mask >> v & 1)
        for v in vs:
            seen[v] = seen.get(v, 0) + 1
        es = frozenset(e for e in g.edges if mask >> e[0] & 1 and mask >> e[1] & 1)
        if len(es) == 1:
            (u, v) = next(iter(es))
            kind = "hair" if g.degree(u) == 1 or g.degree(v) == 1 else "bridge"
            blocks.append(Block(vs, es, kind))
            continue
        kind = "cycle" if len(es) == len(vs) else "essential"
        blocks.append(Block(vs, es, kind, _outer_cycle(g, mask)))
    cuts = frozenset(v for v, c in seen.items() if c >= 2)
    weights = {}
    for c in cuts:
        hairs = sum(1 for b in blocks if b.kind == "hair" and c in b.vertices)
        weights[c] = "light" if hairs == 1 else "heavy"
    return BlockDecomposition(tuple(blocks), cuts, weights)


def is_outerplanar(g: Graph) -> bool:
    """Every non-trivial block of every component has an outer cycle.

    An outerplanar graph with n >= 2 has at most 2n - 3 edges, so a
    denser one is refused before any block is walked."""
    if g.n >= 2 and g.m > 2 * g.n - 3:
        return False
    return all(
        mask.bit_count() == 2 or _outer_cycle(g, mask) is not None
        for mask in _block_masks(g)
    )


def _outer_cycle(g: Graph, mask: int) -> tuple[int, ...] | None:
    """Outer cycle of the 2-connected block of g on the vertex mask
    `mask`, or None when the block is not outerplanar: its first
    Hamiltonian cycle, kept when no two chords cross on it."""
    cyc = _hamiltonian_cycle(g, mask)
    if cyc is None:
        return None
    pos = {v: i for i, v in enumerate(cyc)}
    last = len(cyc) - 1
    chords = []
    for u, i in pos.items():
        for w in g.neighbors(u):
            j = pos.get(w, -1)
            if j > i + 1 and (i, j) != (0, last):
                chords.append((i, j))
    if any(a < c < b < d for a, b in chords for c, d in chords):
        return None
    return tuple(cyc)


def _hamiltonian_cycle(g: Graph, mask: int) -> list[int] | None:
    """Hamiltonian cycle of the subgraph induced by the vertex mask
    `mask`, from its least vertex, neighbours tried in increasing order."""
    n = mask.bit_count()
    start = (mask & -mask).bit_length() - 1
    path = [start]
    used = 1 << start

    def rec() -> bool:
        nonlocal used
        if len(path) == n:
            return g.has_edge(path[-1], start)
        for w in g.neighbors(path[-1]):
            if mask >> w & 1 and not used >> w & 1:
                path.append(w)
                used |= 1 << w
                if rec():
                    return True
                path.pop()
                used &= ~(1 << w)
        return False

    return path if rec() else None


def _faces(cyc: tuple[int, ...], edges: frozenset[Edge]) -> tuple[Face, ...]:
    """Bounded faces of a 2-connected outerplanar block.

    Edges become intervals over positions on the outer cycle `cyc`; they
    do not cross, so each interval spanning more than one step bounds
    one face, together with its maximal proper sub-intervals.
    """
    pos = {v: i for i, v in enumerate(cyc)}
    last = len(cyc) - 1
    intervals = sorted(tuple(sorted((pos[u], pos[v]))) for u, v in edges)
    faces = []
    for i, j in intervals:
        if j - i < 2:
            continue
        sides = [(i, j)]
        a = i
        while a < j:
            a_end = max(y for x, y in intervals if x == a and y <= j and (x, y) != (i, j))
            sides.append((a, a_end))
            a = a_end
        n_chords = sum(1 for x, y in sides if y - x > 1 and (x, y) != (0, last))
        faces.append(Face(frozenset(norm_edge(cyc[x], cyc[y]) for x, y in sides), n_chords <= 1))
    return tuple(faces)
