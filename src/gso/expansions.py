"""Expansions over an enhanced host and their cost.

An (E_in, E_out)-expansion is a sequence of edge sets A_1..A_r with
A_1 = E_in, A_r = E(host) minus E_out, intermediate sets sandwiched
between those, and |A_{i+1} minus A_i| <= 1.  Connected: every induced
edge set is connected.  Monotone: the sets grow.

The cost of an expansion is the width of the cheapest strategy that
cleans the edges in exactly this order.  A strategy realizes the order
by a sequence of moves; one move may cover a run of consecutive
positions when the arriving edges form a star at the landing vertex
whose other endpoints are occupied.  Between moves, searchers stand
exactly on the boundary of the clean set (monotonicity pins every
boundary guard in place), so the cost is computed by a shortest-path
style sweep over realized positions.  Rooted instances start mid-game
with searchers on S_in and E_in plus the edges inside S_in clean, so
the cost is never below |S_in|.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .graphs import Edge, Enhancement, Graph, boundary, norm_edge, vertex_set
from .simulate import HostCtx, Move, Trace, p, s


class InvalidExpansion(ValueError):
    pass


@dataclass(frozen=True)
class Expansion:
    host: Graph
    sets: tuple[frozenset[Edge], ...]

    def __post_init__(self):
        object.__setattr__(
            self,
            "sets",
            tuple(frozenset(norm_edge(*e) for e in a) for a in self.sets),
        )


def validate_expansion(
    ex: Expansion,
    e_in: frozenset[Edge] = frozenset(),
    e_out: frozenset[Edge] = frozenset(),
) -> None:
    _check_conditions(ex, e_in, e_out, connected=True)


def _check_conditions(
    ex: Expansion, e_in: frozenset[Edge], e_out: frozenset[Edge], connected: bool
) -> None:
    """Raise InvalidExpansion at the first condition ex breaks, in the
    order 3, 4, 1, 2, 5, 6; condition 5 (connected) only if asked."""
    host = ex.host
    sets = ex.sets
    if not sets:
        raise InvalidExpansion("empty expansion")
    all_edges = frozenset(host.edges)
    target = all_edges - e_out
    if sets[0] != e_in:
        raise InvalidExpansion("condition 3: first set must equal E_in")
    if sets[-1] != target:
        raise InvalidExpansion("condition 4: last set must equal E(host) minus E_out")
    for i, a in enumerate(sets[:-1]):
        if not (e_in <= a <= target):
            raise InvalidExpansion(f"condition 1: set {i + 1} outside [E_in, E minus E_out]")
    for i in range(len(sets) - 1):
        if len(sets[i + 1] - sets[i]) > 1:
            raise InvalidExpansion(f"condition 2: step {i + 1} adds more than one edge")
    if connected:
        ctx = HostCtx(host)
        for i, a in enumerate(sets):
            if not ctx.edges_connected(ctx.emask(a)):
                raise InvalidExpansion(f"condition 5: set {i + 1} not connected")
    for i in range(len(sets) - 1):
        if not sets[i] <= sets[i + 1]:
            raise InvalidExpansion(f"condition 6: step {i + 1} shrinks the set")


@dataclass(frozen=True)
class _Jump:
    occupied: frozenset[int]  # searchers just before the cleaning move
    landing: int
    source: int | None  # slide source, None for a placement
    cleaned: frozenset[Edge]


def _realization(ex: Expansion, enh: Enhancement | None) -> tuple[int, list[_Jump]]:
    """Cheapest strategy realizing the expansion's cleaning order.

    Returns (width, jumps).  Each jump is one cleaning move covering a
    run of consecutive positions; between jumps the searchers stand on
    the boundary of the realized set.  Raises InvalidExpansion when no
    monotone strategy can clean the edges in this order (an edge whose
    endpoints both entered the boundary earlier would have been cleaned
    already).
    """
    host = ex.host
    if enh is None:
        start, floor = frozenset(), 0
    elif enh.host != host:
        raise InvalidExpansion("expansion host differs from the enhancement")
    else:
        start, floor = enh.e_start, len(enh.base.s_in)
    all_edges = frozenset(host.edges)
    # every set of a valid expansion contains E_in, the rest of the start
    # is the edges inside S_in
    pos: list[frozenset[Edge]] = [start]
    for a in ex.sets:
        aa = a | start
        if aa != pos[-1]:
            pos.append(aa)
    bnd = [frozenset(boundary(host, a)) for a in pos]
    r = len(pos)
    INF = host.n + len(all_edges) + 2
    best = [INF] * r
    back: list[tuple[int, _Jump] | None] = [None] * r
    best[0] = 0
    for i in range(1, r):
        for j in range(i):
            if best[j] >= INF:
                continue
            jump = _cheapest_jump(host, all_edges, pos[j], pos[i], bnd[j], bnd[i])
            if jump is None:
                continue
            w, rec = jump
            w = max(best[j], w)
            if w < best[i]:
                best[i] = w
                back[i] = (j, rec)
    if best[-1] >= INF:
        raise InvalidExpansion("cleaning order is not realizable by a strategy")
    jumps: list[_Jump] = []
    i = r - 1
    while i > 0:
        j, rec = back[i]
        jumps.append(rec)
        i = j
    jumps.reverse()
    return max(floor, best[-1]), jumps


def _cheapest_jump(
    host: Graph,
    all_edges: frozenset[Edge],
    a: frozenset[Edge],
    a2: frozenset[Edge],
    ba: frozenset[int],
    ba2: frozenset[int],
) -> tuple[int, _Jump] | None:
    d = a2 - a
    cands = set.intersection(*(set(e) for e in d))
    dirty = all_edges - a
    best: tuple[int, _Jump] | None = None
    for v in sorted(cands):
        if v in ba:
            continue
        base = set(ba) | {x for e in d for x in e if x != v} | (ba2 - {v})
        if v in base:
            continue
        ok = True
        for e in dirty:
            if v in e:
                other = e[0] if e[1] == v else e[1]
                if other in base and e not in d:
                    ok = False
                    break
            elif e[0] in base and e[1] in base:
                ok = False
                break
        if not ok:
            continue
        occupied = frozenset(base)
        if best is None or len(base) + 1 < best[0]:
            best = (len(base) + 1, _Jump(occupied, v, None, frozenset(d)))
        for e in sorted(d):
            if v not in e:
                continue
            w = e[0] if e[1] == v else e[1]
            if w in ba2:
                continue
            if best is None or len(base) < best[0]:
                best = (len(base), _Jump(occupied, v, w, frozenset(d)))
    return best


def expansion_cost(ex: Expansion, enh: Enhancement | None = None) -> int:
    """Width of the cheapest strategy cleaning in the expansion's order.

    Without an enhancement the expansion is unrooted: E_in and E_out are
    empty, so a nonempty first set raises InvalidExpansion.
    """
    if enh is None:
        validate_expansion(ex)
    else:
        validate_expansion(ex, enh.e_in, enh.e_out)
    return _realization(ex, enh)[0]


def expansion_to_strategy(enh: Enhancement, ex: Expansion) -> list[Move]:
    """Turn a monotone expansion into an equally wide strategy.

    Every condition but 5 is checked: the strategy needs a monotone
    expansion, not a connected one, so an mp witness converts too.
    Opens by staging |S_in| searchers on u_in and sliding one to each
    root, which leaves E_in and the edges inside S_in clean; then plays
    the cheapest realization of the expansion's cleaning order, holding
    exactly the boundary of the realized set between moves.
    """
    _check_conditions(ex, enh.e_in, enh.e_out, connected=False)
    _, jumps = _realization(ex, enh)
    moves: list[Move] = []
    s_in = sorted(enh.base.s_in)
    for _ in s_in:
        moves.append(p(enh.u_in))
    for v in s_in:
        moves.append(s(enh.u_in, v))
    current = set(s_in)
    for jm in jumps:
        for v in sorted(current - jm.occupied):
            moves.append(Move("r", v))
        for v in sorted(jm.occupied - current):
            moves.append(p(v))
        if jm.source is None:
            moves.append(p(jm.landing))
            current = set(jm.occupied) | {jm.landing}
        else:
            moves.append(s(jm.source, jm.landing))
            current = (set(jm.occupied) - {jm.source}) | {jm.landing}
    return moves


def expansion_from_chunks(
    host: Graph, e_in: frozenset[Edge], chunks: Iterable[Sequence[Edge]]
) -> Expansion:
    """The expansion that starts at e_in and adds the chunks' edges one
    at a time, chunk by chunk.

    Inside a chunk the next edge is the first one, in chunk order, with
    an end already laid out (the ends of e_in count); when none has one,
    the first edge left.  Every prefix is one set.  The chunks must be
    disjoint and miss e_in; the result is not validated.
    """
    laid = set(vertex_set(e_in))
    cur = set(e_in)
    sets = [frozenset(cur)]
    for chunk in chunks:
        left = list(chunk)
        while left:
            pick = next((e for e in left if e[0] in laid or e[1] in laid), left[0])
            left.remove(pick)
            laid.update(pick)
            cur.add(pick)
            sets.append(frozenset(cur))
    return Expansion(host, tuple(sets))


def strategy_to_expansion(
    t: Trace,
    e_in: frozenset[Edge] = frozenset(),
    e_out: frozenset[Edge] = frozenset(),
) -> Expansion:
    """Prefix expansion of a monotone trace, truncated to [E_in, E minus E_out].

    Each step's chunk is the target edges it newly cleans outside E_in,
    the sliding edge first and the rest in edge order, and
    `expansion_from_chunks` lays the chunks out from E_in.
    """
    for st in t.steps:
        if st.recontaminated:
            raise InvalidExpansion("trace is not monotone")
    target = frozenset(t.host.edges) - e_out
    chunks = []
    prev: frozenset[Edge] = frozenset()
    for st in t.steps:
        new = (st.clean - prev - e_in) & target
        chunks.append(sorted(new, key=lambda e: (e != st.sliding, e)))
        prev = st.clean
    ex = expansion_from_chunks(t.host, e_in, chunks)
    if ex.sets[-1] != target:
        raise InvalidExpansion("trace does not clean the full target edge set")
    return ex
