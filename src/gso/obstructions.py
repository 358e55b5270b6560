"""Obstruction mining, root-gluing, fans, and the lower-bound branch families.

An obstruction for (param, k) is a connected graph whose parameter
exceeds k while every proper contraction stays at or below k; for the
minor relation the minimality check also covers single-edge deletions.
Mining grows the good graphs, those with no obstruction at or below
them, one vertex at a time.  Good graphs are closed under contraction,
so every graph whose single-edge contractions are all good is a vertex
split of a good graph one vertex smaller.  Mining splits only those, by
the same `gen.split_level` that enumerates the connected graphs, and
drops a split whose contractions have a shape no good graph has.  Each
split left is canonicalised once.  A candidate with a child (a
single-edge contraction, or for minors a component of a single-edge
deletion) that is not good is rejected (the contraction by the edge
it was split at gives back the good graph it was split from, so that
one is not searched); any other is evaluated once,
and it is an obstruction exactly when its parameter exceeds k.  That
is the only question asked of a parameter, so `ABOVE` maps each name to
one solver decision at k, not to a search for the value.  The fan and
branch bases read the connected graphs `gen` enumerates, with the
orbits of their automorphisms, and try one root per orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb
from typing import Callable, Iterator, Sequence

from .blocks import is_outerplanar
from .canon import canonical_certificate, canonical_graph, certificate, rooted_certificate
from .gen import (
    Perm,
    _edge_orbits,
    _orbit_mins,
    split_level,
    with_orbit_mins,
)
from .graphs import (
    Edge,
    Graph,
    Part,
    RootedGraph,
    component_graphs,
    contract_edge,
    contract_edge_rooted,
    doubly_rooted,
    glue,
    norm_edge,
)
from .recognizer import is_fan
from .simulate import HostCtx
from .solvers import cmms_decide, cmp_decide, cms_decide, mp_decide, solve_game

# name -> above(g, k): whether the parameter of the connected graph g exceeds k
ABOVE: dict[str, Callable[[Graph, int], bool]] = {
    "cmp": lambda g, k: not cmp_decide(RootedGraph(g), k),
    "mp": lambda g, k: not mp_decide(RootedGraph(g), k),
    "ms": lambda g, k: not solve_game(g, k, monotone=True)[0],
    "cms": lambda g, k: not cms_decide(g, k),
    "cmms": lambda g, k: not cmms_decide(g, k),
}


def _above_fn(param) -> Callable[[Graph, int], bool]:
    """`ABOVE[param]`; a callable param is read as a value function."""
    if callable(param):
        return lambda g, k: param(g) > k
    return ABOVE[param]


def is_obstruction(g: Graph, param, k: int, relation: str = "contraction") -> bool:
    return _is_obstruction(g, _above_fn(param), k, relation, {})


def _is_obstruction(
    g: Graph,
    above: Callable[[Graph, int], bool],
    k: int,
    relation: str,
    verdicts: dict[bytes, bool],
) -> bool:
    """`is_obstruction` for the decision `above` at k.  The parameter is
    an isomorphism invariant, so each class of children is decided once:
    verdicts maps a child's certificate to `above(child, k)`, and callers
    that pass one table for many graphs share the decisions among them."""
    if not g.is_connected():
        raise ValueError("obstruction candidates must be connected")
    if not above(g, k):
        return False
    for c in _children(g, relation):
        cert = certificate(c)
        bad = verdicts.get(cert)
        if bad is None:
            bad = verdicts[cert] = above(c, k)
        if bad:
            return False
    return True


def _children(
    g: Graph,
    relation: str,
    edges: Sequence[Edge] | None = None,
    skip: Edge | None = None,
) -> Iterator[Graph]:
    """The graphs one step below g: its single-edge contractions and, for
    the minor relation, the components of its single-edge deletions; only
    those of `edges` when given (by default every edge of g), and not the
    contraction of `skip` (its deletion stays)."""
    if edges is None:
        edges = g.edges
    for e in edges:
        if e != skip:
            yield contract_edge(g, e)
    if relation == "minor":
        for e in edges:
            d = Graph.from_edges(g.n, [f for f in g.edges if f != e])
            yield from component_graphs(d)


def _shape(g: Graph) -> tuple[int, int]:
    """(edge count, degree histogram), an isomorphism invariant; the
    histogram counts the vertices of degree d in bits 8d and up."""
    return g.m, sum(1 << 8 * a.bit_count() for a in g.adj)


def _contraction_shapes(h: Graph) -> Iterator[tuple[int, int]]:
    """`_shape(contract_edge(h, e))` for each edge e, without contracting:
    the ends x, y merge into one vertex of degree |N(x) | N(y)| - 2, and
    each common neighbour loses one degree and one edge."""
    adj = h.adj
    deg = [a.bit_count() for a in adj]
    hist = sum(1 << 8 * d for d in deg)
    m = sum(deg) // 2
    for x, y in h.edges:
        common = adj[x] & adj[y]
        out = hist - (1 << 8 * deg[x]) - (1 << 8 * deg[y])
        out += 1 << 8 * ((adj[x] | adj[y]).bit_count() - 2)
        c = common
        while c:
            low = c & -c
            c ^= low
            d = deg[low.bit_length() - 1]
            out += (1 << 8 * (d - 1)) - (1 << 8 * d)
        yield m - 1 - common.bit_count(), out


def mine_obstructions(
    n_max: int,
    param,
    k: int,
    relation: str = "contraction",
    stats: list[dict] | None = None,
) -> list[Graph]:
    """Minimal obstructions up to n_max vertices, by size and in
    certificate order within a size.

    These are the connected graphs whose parameter exceeds k while every
    proper contraction (for minors: every proper connected minor) stays
    at or below k.  Call a graph good when neither it nor any of its
    contractions (minors) exceeds k.  A graph is good exactly when no
    obstruction lies at or below it, and every contraction of a good
    graph is good.

    Split order.  The candidates on n vertices are the graphs whose
    single-edge contractions are all good.  Contracting any edge of a
    candidate gives a good graph, so size n is grown from the good graphs
    on n-1 vertices by `gen.split_level`, at one vertex per orbit of the
    automorphisms found when each was canonicalised, which the level
    keeps with each good graph; its mirror, stabiliser and largest-edge
    rules lose no candidate (see `gen`).  A split with a
    contraction whose (edge count, degree histogram) no good graph on n-1
    vertices has is dropped before it is canonicalised: that contraction
    is not good.

    Classification.  Candidates are visited by (edge count,
    certificate), so every child (`_children`: a single-edge
    contraction, or for minors a component of a single-edge deletion) is
    visited before its parent.  A connected graph that is not good was
    rejected, or found, or never produced because its contractions are
    all not good.  So a candidate with a child outside the good set
    contains an obstruction and is rejected; one child per edge orbit of
    the candidate is enough.  Each candidate keeps the vertex v its first
    split was made at, and the contraction of that split's edge orbit is
    not searched: contracting vv' gives back the good graph it was split
    from.  The deletion children of that orbit are still tested.  Any
    other candidate is evaluated once, by one decision at k (`ABOVE`, or
    `param(g) > k` for a callable param): it is an obstruction when its
    parameter exceeds k, and good otherwise.  No monotonicity of the
    parameter is assumed.  If K1 exceeds k, the output is [K1] and
    nothing is split.

    With a `stats` list, one record per size is appended: splits
    `screened` out by their contraction shapes, `splits` certified,
    distinct `candidates`, `children` certified, `rejected` by a child,
    `evaluated`, `good` and `obstructions`.
    """
    above = _above_fn(param)
    good: set[bytes] = set()
    found: list[Graph] = []
    # the good graphs of the size below, each with the least vertex of
    # each orbit of its automorphisms and those automorphisms
    level: list[tuple[Graph, list[int], list[Perm]]] = []
    for n in range(1, n_max + 1):
        shapes = {_shape(g) for g, _, _ in level}
        # a contraction of a shape no good graph has is not good
        cands, splits, screened = split_level(
            level, lambda h: all(s in shapes for s in _contraction_shapes(h))
        )
        if n == 1:
            k1 = Graph(1, (0,))
            cands[canonical_certificate(k1)] = (k1, None, (0,), [])
        level = []
        fresh: list[tuple[bytes, Graph]] = []
        rejected = children = 0
        for cert in sorted(cands, key=lambda c: (cands[c][0].m, c)):
            h, v, pos, autos = cands[cert]
            # an automorphism maps the children of an edge onto those
            # of its image, so one edge per orbit is enough
            orbit = _edge_orbits(h, autos)
            edges = [e for e, m in orbit.items() if e == m]
            # contracting the split edge vv' gives back the good graph h
            # was split from
            known = None if v is None else orbit[(v, h.n - 1)]
            for c in _children(h, relation, edges, known):
                children += 1
                if certificate(c) not in good:
                    rejected += 1
                    break
            else:
                if above(h, k):
                    fresh.append((cert, h.relabel(pos)))
                else:
                    good.add(cert)
                    level.append((h, _orbit_mins(range(h.n), autos), autos))
        fresh.sort(key=lambda p: p[0])
        found.extend(g for _, g in fresh)
        if stats is not None:
            stats.append(
                {
                    "n": n,
                    "screened": screened,
                    "splits": splits,
                    "candidates": len(cands),
                    "children": children,
                    "rejected": rejected,
                    "evaluated": len(cands) - rejected,
                    "good": len(level),
                    "obstructions": len(fresh),
                }
            )
    return found


def glue_family_at_root(fam: Sequence[RootedGraph], m: int) -> list[Graph]:
    """All graphs from identifying the roots of a size-m multiset of members,
    one per isomorphism class, in certificate order."""
    if m < 1:
        raise ValueError("m must be at least 1")
    for rg in fam:
        if not (len(rg.s_in) == 1 and rg.s_in == rg.s_out):
            raise ValueError("family members must be doubly rooted on one vertex")
    return [g for g, _ in _glued(fam, m)]


def _glued(fam: Sequence[RootedGraph], m: int) -> list[tuple[Graph, tuple[int, ...]]]:
    """`glue_family_at_root(fam, m)`, each canonical graph with the indices
    into fam of the first multiset of members that gave its class."""
    reps: dict[bytes, tuple[Graph, tuple[int, ...]]] = {}
    for combo in combinations_with_replacement(range(len(fam)), m):
        c = canonical_graph(_identify_roots([fam[i] for i in combo])[0])
        reps.setdefault(canonical_certificate(c), (c, combo))
    return [reps[c] for c in sorted(reps)]


def _identify_roots(members: Sequence[RootedGraph]) -> tuple[Graph, int]:
    """Disjoint union with all roots identified; returns (graph, root id)."""
    parts = []
    offset = 1
    for rg in members:
        (root,) = rg.s_in
        labels = []
        for v in range(rg.graph.n):
            if v == root:
                labels.append(0)
            else:
                labels.append(offset)
                offset += 1
        parts.append(Part.from_rooted(rg, labels))
    glued, idx = glue(parts)
    return glued.graph, idx[0]


# ---------------------------------------------------------------------------
# fans


def fan_check_solver(g: Graph, v: int) -> bool:
    return is_fan(doubly_rooted(g, v))


def fan_check_structural(g: Graph, v: int) -> bool:
    if not g.is_connected():
        raise ValueError("fan check requires a connected graph")
    return is_outerplanar(g) and _fan_shape(g, v)


def _fan_shape(g: Graph, v: int) -> bool:
    """Every component of g - v is a vertex or a path with an end adjacent
    to v.  With outerplanarity this is `fan_check_structural`."""
    for comp in g.components(((1 << g.n) - 1) & ~(1 << v)):
        vs = [x for x in range(g.n) if comp >> x & 1]
        degs = [(g.adj[x] & comp).bit_count() for x in vs]
        ends = [x for x, d in zip(vs, degs) if d <= 1]
        if len(vs) > 1 and (max(degs) > 2 or len(ends) != 2):
            return False
        if not any(g.has_edge(x, v) for x in ends):
            return False
    return True


def _minimal_rejects(
    n_max: int, accepts: Callable[[RootedGraph], bool]
) -> list[RootedGraph]:
    """Doubly-rooted connected outerplanar graphs with n <= n_max that
    `accepts` rejects while it accepts every rooted single-edge
    contraction, one per rooted isomorphism class, in rooted-certificate
    order.  `accepts` sees only connected outerplanar graphs, since
    outerplanarity is closed under contraction."""
    out: dict[bytes, RootedGraph] = {}
    for n in range(1, n_max + 1):
        for g, roots in with_orbit_mins(n):
            if not is_outerplanar(g):
                continue
            # doubly_rooted(g, v) and doubly_rooted(g, w) are isomorphic
            # exactly when an automorphism of g maps v to w; keying the
            # rejects by certificate keeps one per class even if the
            # automorphisms found generate only part of the group
            for v in roots:
                rg = doubly_rooted(g, v)
                if accepts(rg):
                    continue
                if all(accepts(contract_edge_rooted(rg, e)) for e in g.edges):
                    out.setdefault(rooted_certificate(rg), rg)
    return [out[c] for c in sorted(out)]


def mine_fan_base(n_max: int = 7) -> list[RootedGraph]:
    """Doubly-rooted outerplanar non-fans all of whose rooted single-edge
    contractions are fans; the minimal seeds for the branch construction.

    Uses the structural fan test.  The solver test (width 2 with the
    root guarded) accepts strictly more rooted graphs, so mining against
    it yields a larger family; the structural test reproduces the base
    family of five.
    """
    return _minimal_rejects(n_max, lambda rg: _fan_shape(rg.graph, min(rg.s_in)))


def mine_branch_base(n_max: int = 7) -> list[RootedGraph]:
    """Default level-1 branch family: rooted-contraction-minimal
    doubly-rooted outerplanar graphs failing the solver fan test.

    Every member needs three searchers even with the root guarded, which
    is the property the branch lower-bound argument rests on.  This is a
    superset situation relative to mine_fan_base: structurally minimal
    non-fans that are nevertheless width-2 searchable (the star rooted
    at a leaf) are excluded here, and larger graphs become minimal in
    their place.

    The fan test is `recognizer.is_fan`: a rooted graph with a cycle off
    its root is rejected without a search, and only the rest are asked
    of `cmp_decide`.
    """
    return _minimal_rejects(n_max, is_fan)


# ---------------------------------------------------------------------------
# branch families


@dataclass(frozen=True)
class Branch:
    graph: Graph
    root: int
    trunk: Edge
    level: int

    def __post_init__(self):
        if self.level > 1 and self.graph.degree(self.root) != 1:
            raise ValueError("branch root must have degree 1 above level 1")
        if self.root not in self.trunk:
            raise ValueError("trunk must be incident to the root")


def base_branches(base: Sequence[RootedGraph]) -> list[Branch]:
    """Level-1 branches from a doubly-rooted base family.

    Base roots may have any degree; the trunk of a level-1 branch is the
    smallest edge incident to the root.  Raises ValueError, naming the
    member's index, unless every member is doubly rooted on one vertex
    with an incident edge.
    """
    out = []
    for i, rg in enumerate(base):
        if not (len(rg.s_in) == 1 and rg.s_in == rg.s_out):
            raise ValueError(f"base member {i} must be doubly rooted on one vertex")
        (v,) = rg.s_in
        if rg.graph.degree(v) < 1:
            raise ValueError(f"base member {i}: root must have an incident edge")
        u = min(rg.graph.neighbors(v))
        out.append(Branch(rg.graph, v, norm_edge(v, u), 1))
    return out


def _branch_rooted(b: Branch) -> RootedGraph:
    return doubly_rooted(b.graph, b.root)


def branch_set(k: int, base: Sequence[RootedGraph]) -> list[Branch]:
    """Br(k): identify the roots of two Br(k-1) branches, then attach a
    fresh trunk edge at the junction; the new endpoint is the root."""
    _check_level(k)
    level = base_branches(base)
    for lvl in range(2, k + 1):
        seen: dict[bytes, Branch] = {}
        for a, b in combinations_with_replacement(level, 2):
            g, junction = _identify_roots([_branch_rooted(a), _branch_rooted(b)])
            n = g.n
            g2 = Graph.from_edges(n + 1, list(g.edges) + [(junction, n)])
            br = Branch(g2, n, norm_edge(junction, n), lvl)
            seen.setdefault(rooted_certificate(_branch_rooted(br)), br)
        level = [seen[c] for c in sorted(seen)]
    return level


def _check_level(k: int) -> None:
    if k < 1:
        raise ValueError(f"branch level k must be at least 1, got {k}")


def branch_count(k: int, base_size: int = 5) -> int:
    """|Br(k)|; obr_count and both bound checks raise through it for k < 1
    or a negative base_size."""
    _check_level(k)
    if base_size < 0:
        raise ValueError(f"base size must be at least 0, got {base_size}")
    f = base_size
    for _ in range(2, k + 1):
        f = comb(f + 1, 2)
    return f


def obr_set(k: int, base: Sequence[RootedGraph]) -> list[Graph]:
    """O_Br(k): three Br(k) branches with their roots identified, one per
    isomorphism class, in certificate order."""
    return glue_family_at_root([_branch_rooted(b) for b in branch_set(k, base)], 3)


def obr_count(k: int, base_size: int = 5) -> int:
    return comb(branch_count(k, base_size) + 2, 3)


def branch_count_lower_bound_holds(k: int, base_size: int = 5) -> bool:
    """f(k) >= 2 * (5/2)^(2^(k-1)), checked in integers."""
    e = 2 ** (k - 1)
    return branch_count(k, base_size) * 2**e >= 2 * 5**e


def obr_count_lower_bound_holds(k: int, base_size: int = 5) -> bool:
    """|O_Br(k)| >= (4/3) * (5/2)^(3 * 2^(k-1)), checked in integers."""
    e = 3 * 2 ** (k - 1)
    return obr_count(k, base_size) * 3 * 2**e >= 4 * 5**e


def _rooted_contractions(rg: RootedGraph) -> dict[bytes, RootedGraph]:
    """rg's rooted single-edge contractions, one per rooted isomorphism
    class, keyed by rooted certificate."""
    out: dict[bytes, RootedGraph] = {}
    for e in rg.graph.edges:
        c = contract_edge_rooted(rg, e)
        out.setdefault(rooted_certificate(c), c)
    return out


def _obr_contractions(
    branches: Sequence[Branch],
) -> Iterator[tuple[Graph, dict[tuple[bytes, ...], list[RootedGraph]]]]:
    """The glued graphs of three of these branches, as `obr_set` lists
    them, each with its single-edge contractions keyed by their parts.

    Every edge of a glued graph lies in one branch, and contracting it
    contracts that branch alone, rooted at the image of its root.  So a
    contraction is the contracted branch glued at the root to the other
    two; its key is the sorted triple of their rooted certificates, and
    its value those three parts, for `_identify_roots`.  Glueing
    isomorphic rooted parts gives isomorphic graphs, so equal keys mean
    isomorphic contractions; the certificates and contractions of each
    branch are found once, not on every glued graph.
    """
    parts = [_branch_rooted(b) for b in branches]
    certs = [rooted_certificate(rg) for rg in parts]
    contracted = [_rooted_contractions(rg) for rg in parts]
    for g, combo in _glued(parts, 3):
        keyed: dict[tuple[bytes, ...], list[RootedGraph]] = {}
        for j, i in enumerate(combo):
            rest = combo[:j] + combo[j + 1 :]
            for cert, part in contracted[i].items():
                key = tuple(sorted([cert, *(certs[x] for x in rest)]))
                if key not in keyed:
                    keyed[key] = [part, *(parts[x] for x in rest)]
        yield g, keyed


def verify_obr(k: int, base: Sequence[RootedGraph]) -> dict:
    """Check the level-k family claims by constrained solver calls.

    Per glued obstruction: the connected monotone search number exceeds
    k+1 while every single-edge contraction is searchable with k+1.
    Per branch: no width-k strategy whose first cleaned edge is the
    trunk; width-(k+2) strategies exist that keep a searcher on the
    root throughout; width-(k+1) strategies exist cleaning the trunk
    first, and also cleaning it last.

    A contraction is named by its parts (`_obr_contractions`): the
    contracted branch and the other two, by rooted certificate.  Each
    name is solved once across the family, on its first glued graph, so
    a contraction shared by several glued graphs reuses its verdict
    (still reported once for each of them), and no glued graph or
    contraction is canonicalised to find its classes.  The violations of
    a glued graph are listed once per isomorphism class of contraction,
    in certificate order; only they are certified.
    """
    report: dict = {"k": k, "violations": [], "graphs": 0, "branches": 0}
    branches = branch_set(k, base)
    # contraction key -> whether the contraction breaks the claim
    broken: dict[tuple[bytes, ...], bool] = {}

    for g, contractions in _obr_contractions(branches):
        report["graphs"] += 1
        if cmms_decide(g, k + 1):
            report["violations"].append(("value", certificate(g).decode()))
        bad: set[bytes] = set()
        for key, parts in contractions.items():
            hit = broken.get(key)
            if hit is None:
                # the k+1 and k solves share its move tables
                ctx = HostCtx(_identify_roots(parts)[0])
                hit = broken[key] = not cmms_decide(ctx, k + 1) or cmms_decide(ctx, k)
            if hit:
                bad.add(certificate(_identify_roots(parts)[0]))
        for c in sorted(bad):
            report["violations"].append(
                ("contraction", certificate(g).decode(), c.decode())
            )

    for b in branches:
        report["branches"] += 1
        ctx = HostCtx(b.graph)
        trunk = ctx.emask([b.trunk])
        common = dict(connected=True, monotone=True)
        checks = [
            ("trunk_first_k", k, dict(first_clean=trunk), False),
            ("root_guarded_k2", k + 2, dict(guard=b.root), True),
            ("trunk_first_k1", k + 1, dict(first_clean=trunk), True),
            ("trunk_last_k1", k + 1, dict(last_clean=trunk), True),
        ]
        for name, width, kw, expect in checks:
            ok = solve_game(ctx, width, **common, **kw)[0]
            if ok != expect:
                report["violations"].append((name, certificate(b.graph).decode()))
    report["ok"] = not report["violations"]
    return report
