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

from .graphs import Edge, Enhancement, Graph, norm_edge
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
    occupied: int  # vertex mask of the searchers just before the cleaning move
    landing: int
    source: int | None  # slide source, None for a placement


def _realization(ex: Expansion, enh: Enhancement | None) -> tuple[int, list[_Jump]]:
    """Cheapest strategy realizing the expansion's cleaning order.

    Returns (width, jumps).  Each jump is one cleaning move covering a
    run of consecutive positions; between jumps the searchers stand on
    the boundary of the realized set.  Raises InvalidExpansion when no
    monotone strategy can clean the edges in this order (an edge whose
    endpoints both entered the boundary earlier would have been cleaned
    already).  Positions are edge masks and boundaries vertex masks of
    one `HostCtx`.
    """
    host = ex.host
    ctx = HostCtx(host)
    if enh is None:
        start, floor = 0, 0
    elif enh.host != host:
        raise InvalidExpansion("expansion host differs from the enhancement")
    else:
        start, floor = ctx.emask(enh.e_start), len(enh.base.s_in)
    # every set of a valid expansion contains E_in, the rest of the start
    # is the edges inside S_in
    pos = [start]
    for a in ex.sets:
        aa = ctx.emask(a) | start
        if aa != pos[-1]:
            pos.append(aa)
    bnd = [ctx.vmask(a) & ctx.vmask(ctx.full & ~a) for a in pos]
    r = len(pos)
    INF = host.n + ctx.m + 2
    best = [INF] * r
    back: list[tuple[int, _Jump] | None] = [None] * r
    best[0] = 0
    for i in range(1, r):
        for j in range(i):
            if best[j] >= INF:
                continue
            jump = _cheapest_jump(ctx, pos[j], pos[i], bnd[j], bnd[i])
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
    ctx: HostCtx, a: int, a2: int, ba: int, ba2: int
) -> tuple[int, _Jump] | None:
    """Cheapest one move from clean edge mask a, with boundary ba, to a2,
    with boundary ba2: (width, jump), or None when no move does it.

    The move cleans the star d = a2 minus a, landing at a common end v of
    d's edges off ba, by a placement or by a slide from an end of d off
    ba2.  Just before it the searchers stand on base: ba, d's other ends,
    and ba2 less v.  An edge is clean once searchers hold both its ends,
    so the move is legal and cleans exactly d when `HostCtx.occupied(base)`
    shows no dirty edge inside base (it would be clean already) and none
    from v into base outside d (the landing would clean it out of order).
    """
    d = a2 & ~a
    dirty = ctx.full & ~a
    ends = ctx.vmask(d)
    best: tuple[int, _Jump] | None = None
    for v, iv in enumerate(ctx.inc):
        vb = 1 << v
        if iv & d != d or ba & vb:
            continue
        base = ba | ((ends | ba2) & ~vb)
        both, seen = ctx.occupied(base)
        if both & dirty or iv & seen & dirty & ~d:
            continue
        size = base.bit_count()
        if best is None or size + 1 < best[0]:
            best = (size + 1, _Jump(base, v, None))
        sources = ends & ~vb & ~ba2
        if sources and size < best[0]:
            best = (size, _Jump(base, v, (sources & -sources).bit_length() - 1))
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
        occupied = {v for v in range(enh.host.n) if jm.occupied >> v & 1}
        for v in sorted(current - occupied):
            moves.append(Move("r", v))
        for v in sorted(occupied - current):
            moves.append(p(v))
        if jm.source is None:
            moves.append(p(jm.landing))
            current = occupied | {jm.landing}
        else:
            moves.append(s(jm.source, jm.landing))
            current = (occupied - {jm.source}) | {jm.landing}
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
    laid = {v for e in e_in for v in e}
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
