"""Connected graph enumeration by vertex splitting, one representative per
isomorphism class.

Vertex splitting is the inverse of edge contraction.  `split_level`
grows a level of graphs by one vertex: in each graph, one vertex v per
orbit of its automorphisms (`_orbit_mins`) becomes the adjacent pair
v, v' (v' is the new vertex), and each neighbour of v goes to v, to v'
or to both.  Three rules prune the splits before they are canonicalised:
- mirror: swapping v and v' gives an isomorphic graph, so of the two
  assignments only the one whose first neighbour not sent to both goes
  to v is kept;
- stabiliser: an automorphism of the graph that fixes v maps each split
  at v onto an isomorphic one, so a split is skipped when one of the
  given automorphisms fixing v maps it onto a smaller (both, moved)
  after the mirror rule.  The least split of each orbit under all the
  automorphisms fixing v is never skipped, so the rule is exact even
  when the automorphisms given generate only part of the group (McKay,
  "Isomorph-free exhaustive generation", J. Algorithms 26, 1998, builds
  no such duplicate);
- largest edge: the split is kept only when its new edge vv' has the
  largest (min degree, max degree, common neighbours) of all its edges;
  ties are kept.
Each split left is canonicalised once, by `canonical_labelling`, which
also gives the automorphisms of the split, and the splits are merged by
certificate.

The rules lose no graph h whose contraction by some edge e of the
largest invariant is isomorphic to a graph of the level: an automorphism
of that graph moves the merged vertex to its orbit's least vertex, and
one of the two mirror assignments rebuilds h with e as the new edge
(McKay, as above).  So a class closed under contraction, such as the
connected graphs or mining's good graphs (`obstructions.mine_obstructions`),
is grown from its own graphs one vertex smaller.  `connected_graphs(n)`
keeps each class's canonical graph, in certificate order, and caches it
with the least vertex of each automorphism orbit, since the checklist
(checks 3, 4 and 6-9, all at n <= 7) sweeps the same sizes many times.
The automorphisms themselves are not cached: the next size searches
each graph again for them, one graph at a time.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .canon import canonical_labelling
from .graphs import Edge, Graph, norm_edge

T = TypeVar("T")
Perm = tuple[int, ...]  # an automorphism: v goes to perm[v]

# n -> (connected_graphs(n), the orbit mins of each graph's automorphisms);
# the automorphisms are searched again when size n + 1 is split, since
# keeping every size's lists costs more memory than the searches cost time
_cache: dict[int, tuple[tuple[Graph, ...], tuple[tuple[int, ...], ...]]] = {}


def _orbits(items: Sequence[T], images: Iterable[Sequence[T]]) -> dict[T, T]:
    """Each item with the least item of its orbit under the group that the
    permutations of `items` generate, in `items` order; each permutation
    is given as the image of every item, in `items` order."""
    # the orbits are the components of the pairs (x, image of x); each
    # component is a tree whose root, its least item, points to itself
    up = dict(zip(items, items))
    for image in images:
        for x, y in zip(items, image):
            while up[x] != x:
                x = up[x]
            while up[y] != y:
                y = up[y]
            if x < y:
                up[y] = x
            elif y < x:
                up[x] = y
    for x in items:
        while up[up[x]] != up[x]:
            up[x] = up[up[x]]
    return up


def _orbit_mins(items: Sequence[T], images: Iterable[Sequence[T]]) -> list[T]:
    """The least item of each orbit (see `_orbits`), in `items` order."""
    return [x for x, m in _orbits(items, images).items() if x == m]


def _edge_orbits(g: Graph, autos: Sequence[Perm]) -> dict[Edge, Edge]:
    """Each edge of g with the least edge of its orbit under the group
    `autos` generate, in edge order."""
    edges = g.edges
    return _orbits(edges, ([norm_edge(p[u], p[w]) for u, w in edges] for p in autos))


def _edge_orbit_mins(g: Graph, autos: Sequence[Perm]) -> list[Edge]:
    """The least edge of each orbit of the group `autos` generate on the
    edges of g, in edge order."""
    return [e for e, m in _edge_orbits(g, autos).items() if e == m]


def _splits(
    g: Graph, roots: Iterable[int], autos: Sequence[Perm]
) -> Iterator[tuple[int, Graph]]:
    """The splits of g at each vertex v of `roots` that the mirror,
    stabiliser and largest-edge rules keep, each with its v; v' is vertex
    g.n.  The stabiliser rule reads the automorphisms `autos` of g."""
    for v in roots:
        nbrs = g.adj[v]
        # the automorphisms fixing v that move a neighbour, each as the
        # (bit, image bit) of every neighbour
        stab = []
        for p in autos:
            if p[v] == v:
                img = [(1 << u, 1 << p[u]) for u in range(g.n) if nbrs >> u & 1]
                if any(a != b for a, b in img):
                    stab.append(img)
        # both: the neighbours sent to v and v'; moved: those sent to v' only
        both = nbrs
        while True:
            # skip every split with this `both` if an automorphism maps it
            # onto a smaller one; keep those that fix it
            fixing = []
            for img in stab:
                image = sum(b for a, b in img if both & a)
                if image < both:
                    break
                if image == both:
                    fixing.append(img)
            else:
                rest = nbrs & ~both
                # the lowest neighbour not sent to both stays with v
                low = rest & -rest
                free = rest ^ low
                moved = free
                while True:
                    for img in fixing:
                        image = sum(b for a, b in img if moved & a)
                        if image & low:  # the mirror of the image
                            image ^= rest
                        if image < moved:
                            break
                    else:
                        h = _split(g, v, both, moved)
                        if h is not None:
                            yield v, h
                    if not moved:
                        break
                    moved = (moved - 1) & free
            if not both:
                break
            both = (both - 1) & nbrs


def _split(g: Graph, v: int, both: int, moved: int) -> Graph | None:
    """g with v split as `_splits` describes, or None when vv' is not an
    edge of the largest invariant."""
    n = g.n
    bit, new = 1 << v, 1 << n
    adj = list(g.adj)
    for u in range(n):
        if moved >> u & 1:
            adj[u] = adj[u] & ~bit | new
        elif both >> u & 1:
            adj[u] |= new
    adj[v] = adj[v] & ~moved | new
    adj.append(both | moved | bit)
    deg = [a.bit_count() for a in adj]
    lo, hi = sorted((deg[v], deg[n]))
    above = at = 0  # the vertices of degree above lo, and of degree lo
    for x, d in enumerate(deg):
        if d > lo:
            above |= 1 << x
        elif d == lo:
            at |= 1 << x
    # an edge beats vv' when its lower degree is above lo, or is lo and
    # its (higher degree, common neighbours) are larger
    top = (hi, both.bit_count())
    for x in range(n + 1):
        if above >> x & 1 and adj[x] & above:
            return None
        if at >> x & 1:
            for y in range(n + 1):
                if (adj[x] & (above | at)) >> y & 1:
                    if (max(deg[x], deg[y]), (adj[x] & adj[y]).bit_count()) > top:
                        return None
    return Graph(n + 1, tuple(adj))


def split_level(
    level: Iterable[tuple[Graph, Iterable[int], Sequence[Perm]]],
    screen: Callable[[Graph], bool] | None = None,
    keep: Callable[[Graph, int, Perm, list[Perm]], T] | None = None,
) -> tuple[dict[bytes, T], int, int]:
    """Split every graph g of `level` at its given vertices, the least of
    each orbit of automorphisms of it, by `_splits` with the given
    automorphisms of g; drop the splits `screen` rejects, and
    canonicalise each split left once.

    Returns the classes by certificate, then the number of splits
    canonicalised and the number screened out.  Each class holds
    `keep(h, v, pos, autos)` of its first split h, made at v, with h's
    canonical positions and the automorphisms found; by default that
    tuple itself.  Nothing of g is kept.
    """
    classes: dict[bytes, T] = {}
    searched = screened = 0
    for g, roots, gens in level:
        for v, h in _splits(g, roots, gens):
            if screen is not None and not screen(h):
                screened += 1
                continue
            searched += 1
            cert, pos, autos = canonical_labelling(h)
            if cert not in classes:
                first = (h, v, pos, autos)
                classes[cert] = first if keep is None else keep(*first)
    return classes, searched, screened


def _canonical(h: Graph, pos: Perm, autos: list[Perm]) -> tuple[Graph, tuple[int, ...]]:
    """h in canonical form, with the least vertex of each orbit of `autos`
    in the canonical labels."""
    # h's automorphism v -> perm[v] is pos[v] -> pos[perm[v]] on the
    # canonical graph, whose vertex pos[v] is h's vertex v
    images = ([pos[w] for w in perm] for perm in autos)
    return h.relabel(pos), tuple(sorted(_orbit_mins(pos, images)))


def connected_graphs(n: int) -> tuple[Graph, ...]:
    if n < 1:
        raise ValueError("n must be positive")
    if n not in _cache:
        if n == 1:
            _cache[1] = ((Graph(1, (0,)),), ((0,),))
        else:
            connected_graphs(n - 1)
            # each parent is searched again for the automorphisms that
            # prune its splits, one parent at a time: the cache keeps none
            level = (
                (g, mins, canonical_labelling(g)[2]) for g, mins in zip(*_cache[n - 1])
            )
            # each class keeps its canonical form, not its split: the splits
            # (with the edges their search cached) would all be alive at once
            classes = split_level(
                level, keep=lambda h, v, pos, autos: _canonical(h, pos, autos)
            )[0]
            graphs, roots = [], []
            shared: dict[tuple[int, ...], tuple[int, ...]] = {}
            for cert in sorted(classes):
                g, mins = classes[cert]
                graphs.append(g)
                # one tuple per distinct value, since most graphs share a few
                # and the cache lives as long as the process
                roots.append(shared.setdefault(mins, mins))
            _cache[n] = (tuple(graphs), tuple(roots))
    return _cache[n][0]


def with_orbit_mins(n: int) -> list[tuple[Graph, tuple[int, ...]]]:
    """Each graph of `connected_graphs(n)` with the least vertex of each
    orbit of the automorphisms found when it was canonicalised."""
    connected_graphs(n)
    return list(zip(*_cache[n]))
