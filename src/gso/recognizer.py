"""Decomposition-based recognition of width-2 connected monotone search.

The recognizer produces certificates; it is not a fast path.  It
assembles a width-2 certificate from per-piece solver calls: either
every root component at some vertex is a fan (the whole graph is
searched out of that vertex), or the graph decomposes along a spine of
central blocks whose directional labels are consistent, in which case
the per-piece witnesses splice into one glued expansion.  Any
structural precondition that fails, any inconsistent label, or any
certificate that does not validate sends the decision to the exact
solver, which is always the authority.  Of the 996 connected graphs
with n <= 7, 161 are answered by a fan cover, 3 by a spine, 1 as
trivial and 831 by the solver, and deciding all of them costs about 2.4
times as much as `cmp_decide(RootedGraph(g), 2)` alone.  Check 8 of
`gso.paperchecks` re-solves every answer that does not come from the
solver.

Rows hold decisions; witnesses are searched only for the parts a
certificate splices.  `_root_fans` gives a vertex its row: the root
components at that vertex, each with whether it is a fan.  A component
with a cycle off the vertex needs three searchers (`root_components`),
so it is a non-fan without a search: of the 7,391 root components the
rows hold over the 996 graphs, 1,233 are searched.  A row with no
non-fan is tried as a fan cover, and the spine reads its degrees,
extremal parts, fans and hanging hairs from the rows of every vertex.
`_certify` alone searches, splices and validates witnesses.  The
trade-off: a fan-cover anchor's components are searched twice, a
decision and then a witness (316 second searches over the 996 graphs);
a witness search per root component would build 570 unspliced ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .blocks import Block, blocks_and_cuts
from .expansions import Expansion, InvalidExpansion, expansion_cost, expansion_from_chunks
from .graphs import (
    Edge,
    Graph,
    RootedGraph,
    doubly_rooted,
    enhance,
    norm_edge,
    rev,
)
from .solvers import cmp_decide


@dataclass(frozen=True)
class SpinePart:
    kind: str  # extremal | fan | central
    rooted: RootedGraph
    gids: tuple[int, ...]  # part vertex -> original vertex


@dataclass(frozen=True)
class SpineStructure:
    central_cuts: tuple[int, ...]
    parts: tuple[SpinePart, ...]  # extremal, F_1, B_1*, ..., F_{r+1}, extremal
    labels: tuple[str, ...]  # one per non-fan part, forward orientation


def root_components(
    g: Graph, v: int
) -> list[tuple[RootedGraph | None, tuple[int, ...]]]:
    """Each component of g - v together with v: the component doubly
    rooted at v, or None when it has a cycle off v, and its vertices.

    A component with a cycle off v is no fan.  Doubly rooted at v, its
    E_in edge is clean from the start and its E_out edge is never
    cleaned, so v holds a searcher throughout.  Just before the last edge
    xy of a cycle C in g - v is cleaned, x and y each touch a clean C-edge
    and the dirty xy, so x, y and v all hold searchers: cmp > 2.
    """
    out = []
    for comp in g.components(((1 << g.n) - 1) & ~(1 << v)):
        vs = tuple(x for x in range(g.n) if (comp | 1 << v) >> x & 1)
        if g.is_forest(comp):
            sub, idx = g.induced(vs)
            out.append((doubly_rooted(sub, idx[v]), vs))
        else:
            out.append((None, vs))
    return out


def is_fan(rg: RootedGraph) -> bool:
    """cmp(rg) <= 2 for rg doubly rooted at one vertex v.  The expansion
    engine is asked only when rg.graph - v is a forest: a cycle off v
    needs three searchers (see `root_components`)."""
    if len(rg.s_in) != 1 or rg.s_out != rg.s_in:
        raise ValueError("a fan is doubly rooted at one vertex")
    g = rg.graph
    (v,) = rg.s_in
    return g.is_forest(((1 << g.n) - 1) & ~(1 << v)) and cmp_decide(rg, 2)


# one row per vertex: its root components, each with whether it is a fan
_Row = list[tuple[RootedGraph | None, tuple[int, ...], bool]]


def _root_fans(g: Graph, v: int) -> _Row:
    return [
        (rg, vs, rg is not None and cmp_decide(rg, 2)) for rg, vs in root_components(g, v)
    ]


def _nonfans(row: _Row) -> list[tuple[int, ...]]:
    return [vs for _, vs, fan in row if not fan]


def spine_degree(g: Graph, v: int) -> int:
    return len(_nonfans(_root_fans(g, v)))


def label_block(b_star: RootedGraph) -> str:
    """How 2 connected searchers can clear b_star: "<->" both ways, "->"
    from s_in to s_out only, "<-" back only, "x" neither.  Connected search
    has a sense of direction, so the two ways can differ; unconnected
    search has none (`test_connected_search_has_a_sense_of_direction`)."""
    f = cmp_decide(b_star, 2)
    b = cmp_decide(rev(b_star), 2)
    if f and b:
        return "<->"
    if f:
        return "->"
    if b:
        return "<-"
    return "x"


def _part(kind: str, g: Graph, vs: Sequence[int], s_in, s_out) -> SpinePart:
    sub, idx = g.induced(vs)
    return SpinePart(
        kind,
        RootedGraph(
            sub,
            frozenset(idx[v] for v in s_in),
            frozenset(idx[v] for v in s_out),
        ),
        tuple(sorted(set(vs))),
    )


def spine_structure(g: Graph) -> SpineStructure | None:
    """Ordered spine decomposition, or None when a precondition fails."""
    if not g.is_connected() or g.m == 0:
        return None
    return _spine(g, [_root_fans(g, v) for v in range(g.n)])


def _spine(g: Graph, rows: Sequence[_Row]) -> SpineStructure | None:
    """`spine_structure` of a connected graph with edges, read from the
    rows of every vertex."""
    degrees = [len(_nonfans(row)) for row in rows]
    if any(d > 2 for d in degrees):
        return None
    central = [v for v, d in enumerate(degrees) if d == 2]
    if not central:
        return None
    dec = blocks_and_cuts(g)
    cset = set(central)
    cblocks = [b for b in dec.blocks if len(b.vertices & cset) >= 2]
    if any(len(b.vertices & cset) > 2 for b in cblocks):
        return None
    if len(cblocks) != len(central) - 1:
        return None

    # the central blocks must chain the central cuts into a path
    if len(central) == 1:
        order = [central[0]]
        border: list[Block] = []
    else:
        nbr: dict[int, list[tuple[int, Block]]] = {c: [] for c in central}
        for b in cblocks:
            x, y = sorted(b.vertices & cset)
            nbr[x].append((y, b))
            nbr[y].append((x, b))
        ends = [c for c in central if len(nbr[c]) == 1]
        if len(ends) != 2 or any(len(nbr[c]) > 2 for c in central):
            return None
        order = [min(ends)]
        border = []
        prev = -1
        while len(order) < len(central):
            nxt = [(y, b) for y, b in nbr[order[-1]] if y != prev]
            if len(nxt) != 1:
                return None
            prev = order[-1]
            order.append(nxt[0][0])
            border.append(nxt[0][1])
        if set(order) != cset:
            return None
    r = len(border)
    c_first, c_last = order[0], order[-1]

    # a central cut has exactly two non-fan components; an end of the
    # spine keeps the one that does not reach its central neighbour
    if r == 0:
        left_vs, right_vs = sorted(_nonfans(rows[c_first]))
    else:
        lefts = [vs for vs in _nonfans(rows[c_first]) if order[1] not in vs]
        rights = [vs for vs in _nonfans(rows[c_last]) if order[-2] not in vs]
        if len(lefts) != 1 or len(rights) != 1:
            return None
        left_vs, right_vs = lefts[0], rights[0]

    # extended central blocks: absorb the single hair at the one
    # non-central cut vertex, when present
    ext_blocks: list[tuple[frozenset[int], frozenset[Edge]]] = []
    for b in border:
        extra_cuts = (b.vertices & dec.cut_vertices) - cset
        if len(extra_cuts) > 1:
            return None
        verts, edges = set(b.vertices), set(b.edges)
        if extra_cuts:
            (w,) = extra_cuts
            if dec.weights.get(w) != "light":
                return None
            hangs = [vs for _, vs, _ in rows[w] if not set(vs) & (b.vertices - {w})]
            if len(hangs) != 1:
                return None
            (hvs,) = hangs
            if len(hvs) != 2:
                return None
            x = next(v for v in hvs if v != w)
            if g.degree(x) != 1:
                return None
            verts.add(x)
            edges.add(norm_edge(w, x))
        ext_blocks.append((frozenset(verts), frozenset(edges)))

    fans: list[tuple[int, ...]] = []
    for c in order:
        fvs: set[int] = {c}
        for _, vs, fan in rows[c]:
            if fan:
                fvs |= set(vs)
        fans.append(tuple(sorted(fvs)))

    parts: list[SpinePart] = [
        _part("extremal", g, left_vs, [], [c_first])
    ]
    for i, c in enumerate(order):
        parts.append(_part("fan", g, fans[i], [c], [c]))
        if i < r:
            verts, edges = ext_blocks[i]
            parts.append(
                _part("central", g, sorted(verts), [c], [order[i + 1]])
            )
    parts.append(_part("extremal", g, right_vs, [c_last], []))

    # the part edge sets must partition E(g)
    covered: set[Edge] = set()
    total = 0
    for pt in parts:
        pes = {
            norm_edge(pt.gids[u], pt.gids[v]) for u, v in pt.rooted.graph.edges
        }
        total += len(pes)
        covered |= pes
    if total != g.m or covered != set(g.edges):
        return None

    labels = tuple(
        label_block(pt.rooted) for pt in parts if pt.kind != "fan"
    )
    return SpineStructure(tuple(order), tuple(parts), labels)


# ---------------------------------------------------------------------------
# certificate assembly


def _certify(
    g: Graph, parts: Sequence[tuple[RootedGraph, Sequence[int]]]
) -> Expansion | None:
    """The parts' width-2 witnesses laid end to end as one unrooted
    expansion of g; None when a part has none or the splice is invalid.

    Each step of a witness is one chunk of `expansion_from_chunks`: the
    edge it adds, mapped to g.  The parts' entry and exit edges have no
    counterpart in g and are dropped.
    """
    chunks = []
    for rg, gids in parts:
        ok, ex = cmp_decide(rg, 2, witness=True)
        if not ok:
            return None
        n = rg.graph.n  # the part's u_in and u_out are n and n + 1
        for a, b in zip(ex.sets, ex.sets[1:]):
            chunks.append([norm_edge(gids[u], gids[v]) for u, v in b - a if u < n and v < n])
    ex = expansion_from_chunks(enhance(RootedGraph(g)).host, frozenset(), chunks)
    try:
        return ex if expansion_cost(ex) <= 2 else None
    except InvalidExpansion:
        return None


def _expansion_json(ex: Expansion) -> list[list[list[int]]]:
    return [sorted([list(e) for e in a]) for a in ex.sets]


def _spine_certificate(g: Graph, st: SpineStructure) -> Expansion | None:
    if "x" in st.labels or ("->" in st.labels and "<-" in st.labels):
        return None
    if "<-" not in st.labels:
        return _certify(g, [(pt.rooted, pt.gids) for pt in st.parts])
    return _certify(g, [(rev(pt.rooted), pt.gids) for pt in reversed(st.parts)])


def decide_cmms_le_2(g: Graph) -> tuple[bool, dict]:
    """Is g searchable by 2 connected monotone searchers, with certificate."""
    if not g.is_connected():
        raise ValueError("recognizer requires a connected graph")
    if g.m == 0:
        return True, {"method": "trivial", "value_le_2": True}
    rows = []
    for v in range(g.n):
        rows.append(_root_fans(g, v))
        ex = None if _nonfans(rows[-1]) else _certify(g, [(rg, vs) for rg, vs, _ in rows[-1]])
        if ex is not None:
            return True, {
                "method": "fan-cover",
                "anchor": v,
                "value_le_2": True,
                "expansion": _expansion_json(ex),
            }
    st = _spine(g, rows)
    ex = None if st is None else _spine_certificate(g, st)
    if ex is not None:
        return True, {
            "method": "spine",
            "central_cuts": list(st.central_cuts),
            "labels": list(st.labels),
            "value_le_2": True,
            "expansion": _expansion_json(ex),
        }
    ok, wit = cmp_decide(RootedGraph(g), 2, witness=True)
    cert: dict = {"method": "solver", "value_le_2": ok}
    if ok:
        cert["expansion"] = _expansion_json(wit)
    return ok, cert
