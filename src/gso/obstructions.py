"""Obstruction mining, root-gluing, fans, and the lower-bound branch families.

An obstruction for (param, k) is a connected graph whose parameter
exceeds k while every proper contraction stays at or below k; for the
minor relation the minimality check also covers single-edge deletions.
Mining enumerates connected graphs by size and keeps one set: the
certificates of the graphs seen so far that contain or equal a found
obstruction.  The order is generated by single steps (an edge
contraction, and for minors the components of an edge deletion), so a
graph contains a found obstruction other than itself exactly when one
of its one-step children is in the set, and the children were all seen
before it.  A graph none of whose children is in the set is evaluated
once; it is an obstruction exactly when its parameter exceeds k.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb
from typing import Callable, Iterator, Sequence

from .blocks import is_outerplanar
from .canon import (
    automorphisms,
    canonical_certificate,
    certificate,
    rooted_certificate,
    unique,
)
from .contractions import proper_contractions
from .gen import connected_graphs
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
from .simulate import HostCtx
from .solvers import (
    cmms_decide,
    cmms_value,
    cmp_decide,
    cmp_plain,
    cms_value,
    mp_plain,
    ms_value,
    solve_game,
)

PARAMS: dict[str, Callable[[Graph], int]] = {
    "cmp": cmp_plain,
    "mp": mp_plain,
    "ms": lambda g: ms_value(g).value,
    "cms": lambda g: cms_value(g).value,
    "cmms": lambda g: cmms_value(g).value,
}


def _param_fn(param) -> Callable[[Graph], int]:
    if callable(param):
        return param
    return PARAMS[param]


def _deletions(g: Graph) -> Iterator[Graph]:
    for e in g.edges:
        yield Graph.from_edges(g.n, [f for f in g.edges if f != e])


def is_obstruction(g: Graph, param, k: int, relation: str = "contraction") -> bool:
    if not g.is_connected():
        raise ValueError("obstruction candidates must be connected")
    fn = _param_fn(param)
    if fn(g) <= k:
        return False
    # the parameter is an isomorphism invariant: one evaluation per class
    seen: set[bytes] = set()
    for c in _children(g, relation):
        cert = certificate(c)
        if cert in seen:
            continue
        seen.add(cert)
        if fn(c) > k:
            return False
    return True


def _children(g: Graph, relation: str) -> Iterator[Graph]:
    """The graphs one step below g: its single-edge contractions and, for
    the minor relation, the components of its single-edge deletions."""
    for e in g.edges:
        yield contract_edge(g, e)
    if relation == "minor":
        for d in _deletions(g):
            yield from component_graphs(d)


def mine_obstructions(
    n_max: int, param, k: int, relation: str = "contraction"
) -> list[Graph]:
    """Minimal obstructions up to n_max vertices, in certificate order.

    These are the connected graphs whose parameter exceeds k while every
    proper contraction (for minors: every proper connected minor) stays
    at or below k.  Graphs are visited by size and, within a size, by
    edge count, so every child of a graph (`_children`) is visited
    before it.  By induction on that order, a visited graph lands in
    `bad` exactly when it contains or equals an obstruction:
    - containment is transitive, so a graph with a child in `bad`
      contains an obstruction;
    - a graph that contains an obstruction other than itself has a
      child that contains or equals it: contract an edge inside a class
      of two or more vertices, or (minors) delete an edge the minor
      leaves out;
    - so no proper contraction (minor) of a graph with no child in `bad`
      contains an obstruction.  Every graph above k contains one, so they
      all stay at or below k, and the graph is an obstruction exactly
      when its own parameter, evaluated once, exceeds k.
    No monotonicity of the parameter is assumed.
    """
    fn = _param_fn(param)
    bad: set[bytes] = set()
    found: list[Graph] = []
    for n in range(1, n_max + 1):
        fresh: list[tuple[bytes, Graph]] = []
        # stable: certificate order within an edge count; the generated
        # graphs are canonical, so their own certificates need no search
        for g in sorted(connected_graphs(n), key=lambda g: g.m):
            if any(certificate(c) in bad for c in _children(g, relation)):
                bad.add(canonical_certificate(g))
            elif fn(g) > k:
                cert = canonical_certificate(g)
                bad.add(cert)
                fresh.append((cert, g))
        found.extend(g for _, g in sorted(fresh, key=lambda p: p[0]))
    return found


def glue_family_at_root(fam: Sequence[RootedGraph], m: int) -> list[Graph]:
    """All graphs from identifying the roots of a size-m multiset of members,
    one per isomorphism class, in certificate order."""
    if m < 1:
        raise ValueError("m must be at least 1")
    for rg in fam:
        if not (len(rg.s_in) == 1 and rg.s_in == rg.s_out):
            raise ValueError("family members must be doubly rooted on one vertex")
    return unique(
        _identify_roots(combo)[0] for combo in combinations_with_replacement(fam, m)
    )


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
    return cmp_decide(doubly_rooted(g, v), 2)


def fan_check_structural(g: Graph, v: int) -> bool:
    if not g.is_connected():
        raise ValueError("fan check requires a connected graph")
    return is_outerplanar(g) and _fan_shape(g, v)


def _fan_shape(g: Graph, v: int) -> bool:
    """Every component of g - v is a vertex or a path with an end adjacent
    to v.  With outerplanarity this is `fan_check_structural`."""
    allowed = ((1 << g.n) - 1) & ~(1 << v)
    rest = allowed
    while rest:
        w = (rest & -rest).bit_length() - 1
        comp = g.component_mask(w, allowed)
        rest &= ~comp
        vs = [x for x in range(g.n) if comp >> x & 1]
        sub, idx = g.induced(vs)
        degs = sorted(sub.degree(i) for i in range(sub.n))
        if sub.n == 1:
            ends = vs
        elif degs[-1] <= 2 and degs[:2] == [1, 1] and sub.is_connected():
            ends = [x for x in vs if sub.degree(idx[x]) == 1]
        else:
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
        for g in connected_graphs(n):
            if not is_outerplanar(g):
                continue
            # doubly_rooted(g, v) and doubly_rooted(g, w) are isomorphic
            # exactly when an automorphism of g maps v to w; keying the
            # rejects by certificate keeps one per class even if the
            # automorphisms found generate only part of the group
            for v in _orbit_mins(g):
                rg = doubly_rooted(g, v)
                if accepts(rg):
                    continue
                if all(accepts(contract_edge_rooted(rg, e)) for e in g.edges):
                    out.setdefault(rooted_certificate(rg), rg)
    return [out[c] for c in sorted(out)]


def _orbit_mins(g: Graph) -> list[int]:
    """The lowest vertex of each orbit of the automorphisms
    `canon.automorphisms` finds for g, in increasing order."""
    # the orbits are the components of the pairs (v, perm[v])
    orbit = list(range(g.n))  # the lowest vertex of v's component so far
    for perm in automorphisms(g):
        for v, w in enumerate(perm):
            a, b = orbit[v], orbit[w]
            if a != b:
                low = min(a, b)
                orbit = [low if x in (a, b) else x for x in orbit]
    return [v for v in range(g.n) if orbit[v] == v]


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
    """
    return _minimal_rejects(n_max, lambda rg: cmp_decide(rg, 2))


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
    smallest edge incident to the root.
    """
    out = []
    for rg in base:
        (v,) = rg.s_in
        if rg.graph.degree(v) < 1:
            raise ValueError("base root must have an incident edge")
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
    """|Br(k)|; obr_count and both bound checks raise through it for k < 1."""
    _check_level(k)
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


def verify_obr(k: int, base: Sequence[RootedGraph]) -> dict:
    """Check the level-k family claims by constrained solver calls.

    Per glued obstruction: the connected monotone search number exceeds
    k+1 while every single-edge contraction is searchable with k+1.
    Per branch: no width-k strategy whose first cleaned edge is the
    trunk; width-(k+2) strategies exist that keep a searcher on the
    root throughout; width-(k+1) strategies exist cleaning the trunk
    first, and also cleaning it last.

    Each contraction is solved once per isomorphism class across the
    family: `proper_contractions` returns canonical graphs, so one class
    is one graph, and a contraction shared by several glued graphs
    reuses its verdict (still reported once for each of them).
    """
    report: dict = {"k": k, "violations": [], "graphs": 0, "branches": 0}
    # canonical contraction -> whether it breaks the claim
    broken: dict[Graph, bool] = {}

    for g in obr_set(k, base):
        report["graphs"] += 1
        if cmms_decide(g, k + 1):
            report["violations"].append(("value", certificate(g).decode()))
        for c in proper_contractions(g):
            bad = broken.get(c)
            if bad is None:
                ctx = HostCtx(c)  # the k+1 and k solves share its move tables
                bad = broken[c] = not cmms_decide(ctx, k + 1) or cmms_decide(ctx, k)
            if bad:
                report["violations"].append(
                    ("contraction", certificate(g).decode(), certificate(c).decode())
                )

    for b in branch_set(k, base):
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
