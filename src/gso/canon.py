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

Refinement works cell by cell: a vertex's new rank is the number of
distinct signatures in the cells before its own plus its rank inside
its cell, so singleton cells, and cells with no neighbour in a cell that
just split, need no signature.  The ranks are the ones a single sort of
every signature gives.  `canonical_labelling(g)` returns, from one
search of g, the certificate, the canonical positions and the
automorphisms the search finds; `gen` splits each graph by the orbits of
those automorphisms, and mining takes one edge per orbit.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .graphs import Graph, RootedGraph


def _refine(
    nbrs: Sequence[list[int]],
    adj: Sequence[int],
    cells: list[list[int]],
    touched: int,
) -> tuple[tuple[int, ...], list[list[int]]]:
    """The coarsest equitable refinement of the ordered partition `cells`:
    the rank (cell index) of each vertex, and the refined cells.

    Each pass orders the vertices by (cell, sorted ranks of the
    neighbours), as one sort over all signatures would.  The cell is the
    primary key, so each cell splits on its own, into its members'
    distinct signatures in sorted order; a cell whose members share one
    signature stays whole, and a singleton needs no signature.

    A cell none of whose members has a neighbour in `touched` is kept
    without signatures.  That is sound when the cell was a class of equal
    signatures before the last split and `touched` holds all parts but
    one of every cell split since: the members' counts of neighbours in
    a split cell are equal, so their counts in its parts can differ only
    in a part in `touched`.  Callers pass every vertex for a partition
    never refined, or the one vertex they split off an equitable
    partition; a pass touches the vertices of the cells it splits.
    Members stay in increasing vertex order inside every cell.
    """
    rank = [0] * len(nbrs)
    while True:
        for i, cell in enumerate(cells):
            for v in cell:
                rank[v] = i
        out: list[list[int]] = []
        split = 0
        for cell in cells:
            if len(cell) > 1:
                for v in cell:  # (a loop measured faster than any())
                    if adj[v] & touched:
                        break
                else:
                    out.append(cell)
                    continue
                parts: dict[tuple[int, ...], list[int]] = {}
                for v in cell:
                    sig = tuple(sorted([rank[u] for u in nbrs[v]]))
                    parts.setdefault(sig, []).append(v)
                if len(parts) > 1:
                    out += [parts[sig] for sig in sorted(parts)]
                    for v in cell:
                        split |= 1 << v
                    continue
            out.append(cell)
        if not split:
            return tuple(rank), cells
        cells, touched = out, split


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
    adj: Sequence[int],
    edges: Sequence[tuple[int, int]],
    cells: list[list[int]],
    touched: int,
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
    colors, cells = _refine(nbrs, adj, cells, touched)
    n = len(colors)
    if len(cells) == n:  # a leaf: each vertex's colour is its position
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
    first = next(i for i, cell in enumerate(cells) if len(cell) > 1)
    target = cells[first]
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
        # v is split off behind the rest of its cell, on an equitable
        # partition, so only v's neighbours can split further
        rest = [u for u in target if u != v]
        branched = cells[:first] + [rest, [v]] + cells[first + 1 :]
        path.append(v)
        best = _search(nbrs, adj, edges, branched, 1 << v, path, best, autos)
        path.pop()
    return best


def _canon(
    g: Graph, colors: Sequence[int], autos: list[tuple[int, ...]] | None = None
) -> Leaf:
    """Least adjacency code over the individualisation tree, and its first
    leaf; the automorphisms the search finds are appended to `autos`."""
    # lists, not tuples: tuple() of a generator is resized to fit, so it is
    # not taken from the interpreter's small-tuple free lists but joins them
    # when freed; they then stay full (about 0.4 MB more peak memory)
    vs = range(g.n)
    nbrs = [[u for u in vs if m >> u & 1] for m in g.adj]
    by_color: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        by_color.setdefault(c, []).append(v)
    cells = [by_color[c] for c in sorted(by_color)]
    if autos is None:
        autos = []
    return _search(nbrs, g.adj, g.edges, cells, (1 << g.n) - 1, [], None, autos)


def canonical_labelling(
    g: Graph,
) -> tuple[bytes, tuple[int, ...], list[tuple[int, ...]]]:
    """One search of g: `certificate(g)`, the position of each vertex in
    the canonical relabeling (`g.relabel(pos)` is `canonical_graph(g)`),
    and the automorphisms the search finds, as permutations (v goes to
    perm[v]); empty when it finds none but the identity.

    They are what the search prunes with.  Each is an automorphism of g;
    the group they generate has the orbits of the full automorphism
    group on every connected graph the tests enumerate (n <= 6), and the
    callers here need only the former: they skip a choice that one of
    them maps onto an earlier one."""
    autos: list[tuple[int, ...]] = []
    code, pos = _canon(g, (0,) * g.n, autos)
    return repr((g.n, code, (0,) * g.n)).encode(), pos, autos


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
    return certificate(rg.graph, rg.root_colors())
