"""Exact search-number solvers.

Two engines, kept deliberately independent so they can cross-check
each other:

* cmp/mp: a search over clean edge sets of the enhanced host.  A
  transition is one game move: a searcher lands on a vertex (by
  placement or slide) and cleans every contaminated edge running from
  it to an occupied vertex, plus the sliding edge.  Between moves
  searchers stand exactly on the boundary of the clean set, so the
  width of a transition is the boundary size plus the extra vertices
  that the move needs occupied.  The cmp search keeps its clean sets
  connected by construction: out of a nonempty set, a move lands only on
  a vertex with a dirty edge into the boundary (see `_jumps`).  Its
  context (`_ExpCtx`) reads the enhanced host's edge tables off the
  rooted graph in one walk, with no `Graph` or `HostCtx` built, and
  its queue carries each set's dirty-neighbour table, which a successor
  copies and updates by the edges its move cleans.
* the game solver: state space over (clean edge set, searcher set)
  with the simulator's closure semantics; flags select the monotone
  and connected variants, optional constraints support the
  trunk-first / trunk-last / guarded-vertex checks.  It searches only
  from a start the game can reach, so only the vertex a move vacates
  can start recontamination.  Each vertex's removal and slides form one
  row built once per host, and the moves out of a searcher set are a
  table of group headers, one per vertex they vacate, built once per
  host and pointing at that vertex's row.  A search tests the vacated
  vertex once per group, computes each move's searchers and cleaned
  edges from the header and the row item, and tests each move there
  alone; it keys its states by one int (see `_moves` and
  `solve_game`).

In each engine a search with a witness and one without run the same
loop over one frontier deque and differ only in which end they pop.  A
search that builds a witness pops the oldest state first
(breadth-first), so its witness is a shortest one.  A decision-only
search pops the newest first (last-in-first-out): the goal usually lies
at the greatest depth, which this order reaches long before it has seen
most of the states.  The set of states a search can reach does not
depend on the order it visits them, so decisions and values are the same
either way, and a no-decision visits the whole set in both; only the
state count of a yes-decision depends on the order.

Rooted instances start mid-game from `Enhancement.e_start`: the root
edges E_in and the edges inside S_in count as already clean and S_in
carries searchers, so the width of a rooted solve is never below |S_in|.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from .expansions import Expansion, expansion_from_chunks
from .graphs import Edge, Graph, RootedGraph, enhance
from .simulate import HostCtx, Move


class BudgetExceeded(Exception):
    """A search ran past its node budget: game or expansion states, or
    partitions in the contraction search."""


@dataclass
class SolveResult:
    value: int
    witness: Any = None
    stats: dict = field(default_factory=dict)


def _check_s_in(rg: RootedGraph) -> None:
    if not rg.graph.is_connected(sum(1 << v for v in rg.s_in)):
        raise ValueError("s_in must induce a connected subgraph")


class _ExpCtx:
    """The enhanced host of a rooted graph as the expansion search reads it,
    built in one walk over `rg.graph.adj`.

    The host is `enhance(rg).host`: the graph plus the apexes u_in = n,
    joined to S_in, and u_out = n + 1, joined to S_out.  Its edges are
    numbered in `Graph.edges` order, which for each u < n lists u's
    neighbours above u, then u_in when u is in S_in, then u_out when u
    is in S_out (the apexes are not adjacent).  ends[i] is (u, w, bit of
    u, bit of w) for edge i and inc[v] the mask of the edges at v; e_in
    is E_in, start is `Enhancement.e_start` (E_in plus the edges inside
    S_in) and target every edge but E_out.  Every search on the context
    starts from start, whose boundary is start_bnd and whose dirty
    neighbours of each vertex are start_dadj; the searches copy that
    table, never change it.  rg is kept for a witness, which is laid out
    on `enhance(rg).host`.
    """

    def __init__(self, rg: RootedGraph):
        g = rg.graph
        n = g.n
        s_in = s_out = 0
        for v in rg.s_in:
            s_in |= 1 << v
        for v in rg.s_out:
            s_out |= 1 << v
        inc = [0] * (n + 2)
        dadj = [0] * (n + 2)
        ends = []
        e_in = e_out = inside = 0
        bit = 1
        for u, nbrs in enumerate(g.adj):
            ub = 1 << u
            rooted = ub & s_in
            m = nbrs >> (u + 1) << (u + 1)
            while m:
                wb = m & -m
                m ^= wb
                w = wb.bit_length() - 1
                ends.append((u, w, ub, wb))
                inc[u] |= bit
                inc[w] |= bit
                if rooted and wb & s_in:
                    inside |= bit
                else:
                    dadj[u] |= wb
                    dadj[w] |= ub
                bit <<= 1
            if rooted:
                ends.append((u, n, ub, 1 << n))
                inc[u] |= bit
                inc[n] |= bit
                e_in |= bit
                bit <<= 1
            if ub & s_out:
                ends.append((u, n + 1, ub, 1 << (n + 1)))
                inc[u] |= bit
                inc[n + 1] |= bit
                e_out |= bit
                bit <<= 1
        start = e_in | inside
        start_bnd = 0
        for v, iv in enumerate(inc):
            if iv & start and iv & ~start:
                start_bnd |= 1 << v
        self.inc = inc
        self.ends = ends
        self.e_in = e_in
        self.start = start
        self.target = (bit - 1) & ~e_out
        self.start_bnd = start_bnd
        self.start_dadj = dadj
        self.s_in_size = len(rg.s_in)
        self.rg = rg

    def edges(self, mask: int) -> list[Edge]:
        """The edges in mask, in host edge order."""
        ends = self.ends
        out = []
        while mask:
            low = mask & -mask
            mask ^= low
            u, w, _, _ = ends[low.bit_length() - 1]
            out.append((u, w))
        return out


def _jumps(ec: _ExpCtx, a: int, bnd: int, dadj: list[int], k: int, connected: bool):
    """One-move transitions from clean set a, whose boundary is bnd and
    whose dirty neighbours of each vertex v are dadj[v], with at most k
    searchers; in a connected search, only those that keep the clean set
    connected.

    A move lands a searcher on a vertex v off the boundary while the
    occupied set is the boundary plus a set of extra dirty neighbours of
    v, and cleans every dirty edge from v into the occupied set.  No
    dirty edge may lie inside the occupied set (it would have been
    cleaned earlier), so a dirty edge inside the boundary ends the call,
    a vertex with a dirty edge into the boundary is never an extra, and
    the extras are independent in the dirty graph.  They are grown by
    doubling over v's dirty neighbours in increasing order (colex), and
    only sets below k - |bnd| members are extended.

    Yields (a2, boundary of a2) once per successor a2, in the order the
    successors are first met.  A placement and every slide out of the
    same occupied set clean the same edges (a slide from w to v cleans
    vw, an edge from v into the occupied set), so a2 is yielded when the
    placement fits (fewer than k occupied) or some occupied dirty
    neighbour of v is off the new boundary, where its searcher may slide
    from.  Two landings reach the same set only when it adds one edge vw
    with both ends off the boundary, once from each end; the lower end
    yields it when it can.

    The boundary changes only at v and at the occupied vertices v cleans
    towards.  Each of them now has a clean edge, so it stays on the
    boundary exactly when it keeps an edge that is not clean: any edge
    but xv for an occupied x, found once per landing vertex v, and any
    edge the move leaves for v.  A yielded boundary lies within the
    occupied set plus v, and a full occupied set yields only when a
    searcher leaves the boundary, so it never exceeds k vertices.

    A move cleans a star at v, and v and every extra have a dirty edge
    and sit off the boundary, so none of their edges is clean, while
    every boundary vertex has a clean edge.  So a connected a2 out of a
    connected nonempty a is exactly one whose star has an edge into the
    boundary: a connected search lands only on vertices with a dirty edge
    into the boundary.  Out of the empty set every star is connected.

    No dirty edge touches an apex: u_in's edges are E_in, clean from the
    start, and u_out's are E_out, never a target.

    dadj is the caller's and stays unchanged.  The landing vertices are
    the boundary's dirty neighbours when no searcher is spare or a
    connected search leaves a nonempty set; otherwise they are every
    vertex off the boundary at a dirty edge (a nonzero dadj entry),
    found only then.
    """
    nbase = bnd.bit_count()
    if nbase > k:
        return
    inc = ec.inc
    dirty = ec.target & ~a
    bad = 0  # vertices with a dirty edge into the boundary
    m = bnd
    while m:
        low = m & -m
        m ^= low
        d = dadj[low.bit_length() - 1]
        if d & bnd:
            return
        bad |= d
    cap = k - nbase
    na = ~a
    # with no searcher to spare there are no extras, so a landing
    # vertex needs a dirty edge into the boundary to clean anything; a
    # connected search needs one to stay connected
    if not cap or connected and a:
        land = bad & ~bnd
    else:
        land = 0  # vertices at a dirty edge
        for v, d in enumerate(dadj):
            if d:
                land |= 1 << v
        land &= ~bnd
    while land:
        vb = land & -land
        land ^= vb
        v = vb.bit_length() - 1
        dn = dadj[v]
        vinc = inc[v] & dirty
        vopen = inc[v] & na
        base = 0  # v's dirty edges into the boundary
        keep = bnd & ~dn  # boundary vertices on the new boundary
        m = dn & bnd
        while m:
            low = m & -m
            m ^= low
            ix = inc[low.bit_length() - 1]
            base |= ix & vinc
            if ix & na & ~vinc:
                keep |= low
        leave = dn & bnd & ~keep  # occupied neighbours a slide may come from
        # (extras, edges from v to them, extras on the new boundary)
        ext = [(0, 0, 0)]
        pool = dn & ~bnd & ~bad if cap else 0
        while pool:
            b = pool & -pool
            pool ^= b
            x = b.bit_length() - 1
            ix = inc[x]
            eb = ix & vinc
            ob = b if ix & na & ~eb else 0
            dx = dadj[x]
            ext += [
                (s | b, e | eb, o | ob)
                for s, e, o in ext
                if not s & dx and s.bit_count() < cap
            ]
        for s, e, o in ext:
            clean = base | e
            if not clean:
                continue
            bnd2 = keep | o
            if vopen & ~clean:
                bnd2 |= vb
            fits = s.bit_count() < cap
            if not (fits or leave or s != o):
                continue
            if not base and s < vb and not s & (s - 1) and (fits or not bnd2 & vb):
                continue  # the landing on the lower end s yielded it
            yield a | clean, bnd2


def _expansion_decide(
    ec: _ExpCtx, k: int, connected: bool, witness: bool, budget: int | None = None
) -> tuple[bool, Expansion | None, int]:
    """Search over the clean sets of width at most k: breadth-first with
    a witness, last-in-first-out without (see the module docstring).
    Returns (decision, witness or None, states popped).

    The queue carries each set with its boundary and its dirty-neighbour
    table (dadj[v], the dirty neighbours of v).  The start's are built
    once per context.  A successor's boundary comes from `_jumps`, and
    none is wider than k.  Its table is its parent's with the edges the
    move cleans removed, made only when the set is first met, so a
    successor met again costs nothing.
    """
    if ec.s_in_size > k:
        return False, None, 0
    start = ec.start
    if ec.start_bnd.bit_count() > k:
        return False, None, 0
    parent: dict[int, tuple[int, int]] = {start: (-1, -1)}
    queue = deque([(start, ec.start_bnd, ec.start_dadj)])
    ends = ec.ends
    explored = 0
    # a connected search holds only connected sets: the start e_start is
    # the star from u_in over S_in plus edges among its leaves, and
    # `_jumps` keeps every successor of a connected set connected.
    while queue:
        a, bnd, dadj = queue.popleft() if witness else queue.pop()
        explored += 1
        if budget is not None and explored > budget:
            raise BudgetExceeded("expansion state budget exhausted")
        if a == ec.target:
            if not witness:
                return True, None, explored
            return True, _reconstruct(ec, parent, a), explored
        for a2, bnd2 in _jumps(ec, a, bnd, dadj, k, connected):
            if a2 in parent:
                continue
            cleaned = a2 & ~a
            parent[a2] = (a, cleaned)
            dadj2 = dadj.copy()
            while cleaned:
                low = cleaned & -cleaned
                cleaned ^= low
                u, w, ub, wb = ends[low.bit_length() - 1]
                dadj2[u] &= ~wb
                dadj2[w] &= ~ub
            queue.append((a2, bnd2, dadj2))
    return False, None, explored


def _reconstruct(ec: _ExpCtx, parent: dict, last: int) -> Expansion:
    """Edge-at-a-time expansion from the chunked search path.

    The chunks are the edges inside S_in, then the edges each move of the
    path cleans, each in host edge order; `expansion_from_chunks` lays
    them out from E_in, so the prefixes of a cmp witness stay connected.
    """
    chunks: list[list[Edge]] = []
    cur = last
    while parent[cur][0] != -1:
        cur, arrived = parent[cur]
        chunks.append(ec.edges(arrived))
    chunks.append(ec.edges(ec.start & ~ec.e_in))
    chunks.reverse()
    return expansion_from_chunks(enhance(ec.rg).host, frozenset(ec.edges(ec.e_in)), chunks)


def cmp_decide(rg: RootedGraph, k: int, witness: bool = False):
    """cmp(rg) <= k.  With witness, the pair (decision, connected monotone
    `Expansion` of width at most k, or None when the decision is no)."""
    _check_s_in(rg)
    ok, wit, _ = _expansion_decide(_ExpCtx(rg), k, connected=True, witness=witness)
    return (ok, wit) if witness else ok


def mp_decide(rg: RootedGraph, k: int) -> bool:
    """mp(rg) <= k: the unconnected twin of `cmp_decide`."""
    return _expansion_decide(_ExpCtx(rg), k, connected=False, witness=False)[0]


def _deepen(decide: Callable[[int], tuple], top: int, t0: float) -> SolveResult:
    """Iterative deepening, the one value search of both engines: the
    least k in 0..top that `decide(k)`, a (decision, witness, states
    explored) triple, accepts, with its witness.  The stats hold the
    states over all levels, the states explored at each level k = 0, 1,
    ..., and the seconds since t0."""
    levels = []
    for k in range(top + 1):
        ok, wit, explored = decide(k)
        levels.append(explored)
        if ok:
            seconds = time.perf_counter() - t0
            stats = {"states": sum(levels), "levels": levels, "seconds": seconds}
            return SolveResult(k, wit, stats)
    raise AssertionError("no strategy within the trivial bound")


def _expansion_value(
    rg: RootedGraph, connected: bool, witness: bool, budget: int | None
) -> SolveResult:
    t0 = time.perf_counter()
    ec = _ExpCtx(rg)
    return _deepen(
        lambda k: _expansion_decide(ec, k, connected, witness, budget), rg.graph.n + 1, t0
    )


def cmp_value(
    rg: RootedGraph, witness: bool = False, budget: int | None = None
) -> SolveResult:
    """budget: most states one level k may pop before BudgetExceeded."""
    _check_s_in(rg)
    return _expansion_value(rg, connected=True, witness=witness, budget=budget)


def mp_value(
    rg: RootedGraph, witness: bool = False, budget: int | None = None
) -> SolveResult:
    return _expansion_value(rg, connected=False, witness=witness, budget=budget)


def cmp_plain(g: Graph) -> int:
    return cmp_value(RootedGraph(g)).value


# ---------------------------------------------------------------------------
# game solver


def _moves(ctx: HostCtx, pmask: int, k: int, guard: int | None) -> list[list]:
    """Every move from searcher set pmask with at most k searchers, in
    search order, as groups [edges at the vacated vertex, that vertex,
    rest, kept, occ, items], one per vacated vertex.  Each item [u, bit
    of u, sliding edge, edges at u] is one move: it leaves the searchers
    rest | bit of u and cleans kept plus the sliding edge when u is in
    rest, else plus u's edges into occ.  The edges cleaned are those
    with both ends occupied afterwards, plus the sliding edge of a
    slide, and only a slide has a sliding edge.

    With (b, occ) = `HostCtx.occupied(pmask)`, each occupied vertex v
    but the guard leads a group [inc[v], v, pmask minus v, b & ~inc[v],
    occ, v's row of `HostCtx.move_rows`]: its removal, the item [None,
    0, 0, 0], then its slides in increasing order of target.  When
    fewer than k searchers stand, the placements come first, as the
    group [0, None, pmask, b, occ, items] with the item [v, bit of v, 0,
    inc[v]] for each unoccupied v, or for the guard alone when pmask is
    0: a placement on v cleans b | inc[v] & occ.

    The headers live on the host (`HostCtx.game_moves`, keyed (pmask,
    guard)), so every solve on it shares them; they do not depend on k.
    The departures are built on the first request for the key, the
    placements on the first request with fewer than k searchers in
    pmask, and the per-vertex rows on the host's first request of all.
    Headers and items are lists, not tuples: built as tuples they raised
    the peak memory of `verify-paper` by about 0.25 MB (in checks 8 and
    9, after check 7's hosts are dropped), and as lists they do not.
    """
    key = (pmask, guard)
    table = ctx.game_moves.get(key)
    if table is None:
        rows = ctx.move_rows
        if rows is None:
            rows = ctx.move_rows = _vertex_rows(ctx)
        b, occ = ctx.occupied(pmask)
        inc = ctx.inc
        out = []
        m = pmask
        while m:
            vb = m & -m
            m ^= vb
            v = vb.bit_length() - 1
            if v != guard:
                out.append([inc[v], v, pmask ^ vb, b & ~inc[v], occ, rows[v]])
        table = ctx.game_moves[key] = [out, b, occ, None]
    if pmask.bit_count() >= k:
        return table[0]
    if table[3] is None:
        inc = ctx.inc
        if guard is not None and pmask == 0:
            items = [[guard, 1 << guard, 0, inc[guard]]]
        else:
            items = [[v, 1 << v, 0, inc[v]] for v in range(ctx.g.n) if not pmask >> v & 1]
        table[3] = [[0, None, pmask, table[1], table[2], items], *table[0]]
    return table[3]


def _vertex_rows(ctx: HostCtx) -> list[list[list]]:
    """Each vertex v's moves as items of `_moves`: its removal, then a
    slide to each neighbour u in increasing order, along the edge
    inc[v] & inc[u]."""
    adj, inc = ctx.adj, ctx.inc
    rows = []
    for v, iv in enumerate(inc):
        row = [[None, 0, 0, 0]]
        nb = adj[v]
        while nb:
            ub = nb & -nb
            nb ^= ub
            u = ub.bit_length() - 1
            row.append([u, ub, iv & inc[u], inc[u]])
        rows.append(row)
    return rows


def solve_game(
    host: Graph | HostCtx,
    k: int,
    *,
    connected: bool = False,
    monotone: bool = False,
    forbid: int = 0,
    start_clean: int = 0,
    start_occupied: int = 0,
    guard: int | None = None,
    first_clean: int | None = None,
    last_clean: int | None = None,
    witness: bool = False,
    budget: int | None = None,
) -> tuple[bool, list[Move] | None, int]:
    """Reachability for the mixed search game with at most k searchers.

    host is a graph or its `HostCtx`; solves given the same context
    share its move rows and group headers.  The goal is every edge clean except the
    forbidden ones, which must never be cleaned.  start_clean and
    start_occupied: mid-game initial state (the rooted start:
    `Enhancement.e_start` clean, searchers on S_in).  first_clean: the
    first nonempty clean set must contain this edge mask.  last_clean:
    this edge mask must stay dirty until the goal is hit.  guard: this
    vertex must carry a searcher from the first move on.  Returns
    (decision, witness moves or None, states explored).

    With witness the frontier is popped breadth-first, so the witness is
    a shortest sequence of moves; without, last-in-first-out, which
    usually reaches a goal in fewer states.  The decision is the same
    either way, and so is the state count of a no-decision (see the
    module docstring).

    A move to searcher set p2 makes q = c plus the edges with both ends
    in p2, plus the sliding edge, clean.  The group headers of the moves
    out of a searcher set, and each vertex's row of moves, are built
    once per host (`_moves`); the loop computes each move from a header
    (iv, v, rest, kept, occ) and a row item (u, ub, eb, iu) as p2 = rest
    | ub and q = c | kept | (eb if rest & ub else iu & occ), which also
    gives a placement (v None, rest the searcher set, eb 0).  The clean
    set after the move is closure(q, p2), the edges of q that no
    unguarded path joins to a dirty edge.  A monotone solve keeps the
    move only if nothing is lost, with c2 = q.

    A state (c, p) is the int c << n | p in the visited set and the
    parent map, and the queue holds (c, p, vertices of c).  The parent
    map keeps the group's vertex and the item's vertex of the move that
    reached a state, and `_witness` names the move from them only when
    the goal is hit.

    The start must be a state the game can reach, or the call raises
    ValueError: closure(start_clean, start_occupied) == start_clean
    and, in a connected solve, start_clean is connected.  Every state
    the search accepts then keeps both properties, and the per-move
    tests lean on them instead of walking the whole host:

    * Stable: every vertex off the searcher set has all or none of its
      edges clean.  A monotone solve keeps only stable states, and a
      closure result is stable.  A move cleans only edges with both ends
      occupied afterwards, plus the slide edge at the vacated vertex v,
      so every unoccupied vertex but v keeps its edges as they were.  A
      placement vacates nothing and loses nothing.  After a removal or
      slide, v has both clean and dirty edges exactly when its dirty
      edges d = inc[v] & ~c, less the slide edge e the move cleans, are
      neither empty nor all of inc[v]: the removal is lossless exactly
      when d is 0 or inc[v], the slide along e when d lies within {e}.
      So the test runs on d once per group of `_moves`, and a monotone
      solve drops the whole group when v has a clean edge and two or
      more dirty ones, and otherwise each move that leaves v mixed.  In
      a non-monotone solve recontamination can start at v alone, and the
      closure loses the edges at every vertex that unguarded paths reach
      from v: c2 = q & ~`HostCtx.flood(1 << v, p2)`, read from the row
      `HostCtx.flood_rows[p2]`, which `HostCtx.floods(p2)` builds on
      first need by one walk per component of host - p2 and which serves
      every v off p2.  Otherwise c2 = q.
    * Connected (connected solves): c induces a connected subgraph, and
      the queue carries each state with the vertices of c, found by the
      walk that accepted it (for the start, the walk that checks it).
      When c2 contains a nonempty c (always in a monotone solve), c2 is
      connected exactly when the new edges c2 & ~c reach the vertices of
      c through one another (`HostCtx.joined`), and that walk returns
      the vertices of c2.  Out of c == 0, or after a closure that lost
      edges, no part of c2 is known to be connected, so a nonempty c2
      takes `HostCtx.connected_vmask(c2)`, the same walk from c2's
      lowest edge, read from `HostCtx.connected_sets`, which every solve
      on the host shares; an empty c2 has no vertices and is connected.
    """
    ctx = host if isinstance(host, HostCtx) else HostCtx(host)
    goal = ctx.full & ~forbid
    if start_occupied.bit_count() > k:
        return False, None, 0
    if start_clean == goal:
        return True, [] if witness else None, 0
    verts = ctx.connected_vmask(start_clean) if connected and start_clean else 0
    if start_clean and (
        ctx.closure(start_clean, start_occupied) != start_clean
        or connected and not verts
    ):
        raise ValueError("start state is not reachable in the game")
    n = ctx.g.n
    start = start_clean << n | start_occupied
    visited = {start}
    # state c << n | p -> (previous state, group vertex, item vertex) of
    # the move that reached it
    parent: dict[int, tuple] = {}
    # each state with the vertex mask of its clean set (0 unless connected)
    queue = deque([(start_clean, start_occupied, verts)])
    explored = 0
    # the moves out of a state depend on its searcher set alone
    moves_at: dict[int, list] = {}
    linked = ctx.connected_sets
    flood_rows = ctx.flood_rows

    while queue:
        c, pmask, verts = queue.popleft() if witness else queue.pop()
        explored += 1
        if budget is not None and explored > budget:
            raise BudgetExceeded("game state budget exhausted")
        moves = moves_at.get(pmask)
        if moves is None:
            moves = moves_at[pmask] = _moves(ctx, pmask, k, guard)
        for iv, v, rest, kept, occ, items in moves:
            d = iv & ~c  # the vacated vertex's dirty edges
            if monotone and d & (d - 1) and d != iv:
                continue  # a clean edge and two dirty ones: every move loses
            for u, ub, eb, iu in items:
                p2 = rest | ub
                q = c | kept | (eb if rest & ub else iu & occ)
                x = d & ~eb
                if x and x != iv:  # v is left with clean and dirty edges
                    if monotone:
                        continue
                    row = flood_rows.get(p2)
                    if row is None:
                        row = ctx.floods(p2)
                    c2 = q & ~row[v]
                else:
                    c2 = q
                # the filters below only decide whether a new state is added
                st2 = c2 << n | p2
                if st2 in visited:
                    continue
                if c2 & forbid:
                    continue
                if first_clean is not None and c == 0 and c2:
                    if c2 & first_clean != first_clean:
                        continue
                if last_clean is not None and c2 != goal and c2 & last_clean:
                    continue
                verts2 = verts
                if connected and c2 != c:
                    if c and c2 & c == c:
                        verts2 = ctx.joined(verts, c2 & ~c)
                    elif c2:
                        verts2 = linked.get(c2)
                        if verts2 is None:
                            verts2 = linked[c2] = ctx.connected_vmask(c2)
                    else:
                        verts2 = 0
                    if c2 and not verts2:
                        continue
                visited.add(st2)
                if witness:
                    parent[st2] = (c << n | pmask, v, u)
                if c2 == goal:
                    if not witness:
                        return True, None, explored
                    return True, _witness(parent, start, st2), explored
                queue.append((c2, p2, verts2))
    return False, None, explored


def _witness(parent: dict[int, tuple], start: int, last: int) -> list[Move]:
    """The moves from start to last along the parent map of `solve_game`:
    a placement's group has no vertex, a removal's item has none."""
    seq = []
    while last != start:
        last, v, u = parent[last]
        if v is None:
            seq.append(Move("p", u))
        elif u is None:
            seq.append(Move("r", v))
        else:
            seq.append(Move("s", v, u))
    seq.reverse()
    return seq


def _game_value(
    ctx: HostCtx, connected: bool, monotone: bool, witness: bool, **kw
) -> SolveResult:
    return _deepen(
        lambda k: solve_game(
            ctx, k, connected=connected, monotone=monotone, witness=witness, **kw
        ),
        ctx.g.n,
        time.perf_counter(),
    )


def ms_value(g: Graph, witness: bool = False, budget: int | None = None) -> SolveResult:
    return _game_value(HostCtx(g), False, True, witness, budget=budget)


def cms_value(g: Graph, witness: bool = False, budget: int | None = None) -> SolveResult:
    return _game_value(HostCtx(g), True, False, witness, budget=budget)


def cmms_value(g: Graph, witness: bool = False, budget: int | None = None) -> SolveResult:
    return _game_value(HostCtx(g), True, True, witness, budget=budget)


def cms_decide(g: Graph | HostCtx, k: int) -> bool:
    """cms(g) <= k; g may be a `HostCtx`, whose move tables it shares."""
    return solve_game(g, k, connected=True)[0]


def cmms_decide(g: Graph | HostCtx, k: int) -> bool:
    """cmms(g) <= k; g may be a `HostCtx`, whose move tables it shares."""
    return solve_game(g, k, connected=True, monotone=True)[0]


def rooted_game_value(
    rg: RootedGraph, witness: bool = False, budget: int | None = None
) -> SolveResult:
    """Monotone connected game on the enhanced host: the game side of cmp.

    budget: most states one level k may pop before BudgetExceeded."""
    _check_s_in(rg)
    enh = enhance(rg)
    ctx = HostCtx(enh.host)
    return _game_value(
        ctx, True, True, witness,
        forbid=ctx.emask(enh.e_out),
        start_clean=ctx.emask(enh.e_start),
        start_occupied=sum(1 << v for v in rg.s_in),
        budget=budget,
    )
