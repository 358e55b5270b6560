import hashlib
import random

import pytest

from gso.gen import connected_graphs
from gso.gio import graph6_decode, graph6_encode
from gso.graphs import (
    Graph,
    RootedGraph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    doubly_rooted,
    enhance,
    k23_plus,
    path_graph,
    star_graph,
)
from gso.obstructions import base_branches
from gso.simulate import HostCtx, Move, is_monotone, simulate, width
from gso.solvers import (
    BudgetExceeded,
    cmms_value,
    cmp_decide,
    cmp_plain,
    cmp_value,
    cms_value,
    mp_decide,
    mp_value,
    ms_value,
    rooted_game_value,
    solve_game,
)
from gso.solvers import _ExpCtx, _expansion_decide, _jumps, _moves
from gso import solvers
from gso.expansions import expansion_cost, expansion_to_strategy, validate_expansion

from conftest import random_connected, random_rooted


# --- plain search numbers -------------------------------------------------


@pytest.mark.parametrize(
    "g,value",
    [
        (path_graph(2), 1),
        (path_graph(6), 1),
        (cycle_graph(3), 2),
        (cycle_graph(6), 2),
        (star_graph(3), 2),
        (complete_graph(4), 3),
        (complete_bipartite(2, 3), 3),
        (k23_plus(), 3),
    ],
)
def test_cmms_values(g, value):
    assert cmms_value(g).value == value


def test_ms_cms_cmms_ordering(rng):
    for _ in range(40):
        g = random_connected(rng, 5)
        ms = ms_value(g).value
        cms = cms_value(g).value
        cmms = cmms_value(g).value
        assert ms <= cms <= cmms or (ms <= cmms and cms <= cmms)


def test_cmms_witness_simulates():
    g = complete_graph(4)
    res = cmms_value(g, witness=True)
    t = simulate(g, res.witness)
    assert is_monotone(t)
    assert width(t) == res.value
    assert t.final_clean == frozenset(g.edges)


# --- cmp / mp -------------------------------------------------------------


@pytest.mark.parametrize(
    "g,value",
    [
        (path_graph(5), 1),
        (complete_graph(3), 2),
        (star_graph(3), 2),
        (complete_graph(4), 3),
        (complete_bipartite(2, 3), 3),
        (k23_plus(), 3),
    ],
)
def test_cmp_plain_values(g, value):
    assert cmp_plain(g) == value


def test_mp_at_most_cmp(rng):
    for _ in range(40):
        rg = random_rooted(rng, random_connected(rng, 5))
        assert mp_value(rg).value <= cmp_value(rg).value


def test_rooted_floor_is_root_count():
    g = path_graph(3)
    rg = RootedGraph(g, frozenset({0, 1, 2}), frozenset())
    assert cmp_value(rg).value >= 3


def test_rooted_corner_single_vertex():
    g = Graph.from_edges(1, [])
    assert cmp_value(RootedGraph(g)).value == 0
    assert cmp_value(doubly_rooted(g, 0)).value == 1


def test_guarded_root_star_leaf():
    # star rooted at a leaf: a slide into the center cleans the wedge
    # back to the guarded root, so two searchers suffice
    g = star_graph(3)
    assert cmp_value(doubly_rooted(g, 1)).value == 2
    # rooted at the center it is the same by a direct sweep
    assert cmp_value(doubly_rooted(g, 0)).value == 2


def test_two_engines_agree(rng):
    for _ in range(60):
        rg = random_rooted(rng, random_connected(rng, 5))
        assert cmp_value(rg).value == rooted_game_value(rg).value


def test_cmp_witness_pipeline(rng):
    for _ in range(30):
        rg = random_rooted(rng, random_connected(rng, 5))
        res = cmp_value(rg, witness=True)
        enh = enhance(rg)
        validate_expansion(res.witness, enh.e_in, enh.e_out)
        moves = expansion_to_strategy(enh, res.witness)
        t = simulate(enh.host, moves)
        assert is_monotone(t)
        assert width(t) == res.value
        ctx = HostCtx(enh.host)
        target = ctx.full & ~ctx.emask(enh.e_out)
        if t.steps:
            assert ctx.emask(t.final_clean) == target


def test_cmp_decide_consistent_with_value():
    rg = doubly_rooted(complete_graph(4), 0)
    v = cmp_value(rg).value
    assert not cmp_decide(rg, v - 1)
    assert cmp_decide(rg, v)


@pytest.mark.parametrize(
    "s_in,ok", [({0, 2}, False), ({0, 3}, False), ({1, 2, 3}, True), ({3}, True)]
)
def test_cmp_needs_a_connected_s_in(s_in, ok):
    rg = RootedGraph(path_graph(4), frozenset(s_in))
    for call in (lambda: cmp_value(rg), lambda: cmp_decide(rg, 2)):
        if ok:
            call()
        else:
            with pytest.raises(ValueError, match="s_in must induce"):
                call()


def test_mp_decide_path_and_triangle():
    p4 = RootedGraph(path_graph(4))
    assert not mp_decide(p4, 0) and mp_decide(p4, 1)
    k3 = RootedGraph(complete_graph(3))
    assert not mp_decide(k3, 1) and mp_decide(k3, 2)


# --- constrained game solves ---------------------------------------------


def test_solve_game_first_clean_constraint():
    g = path_graph(3)
    ctx = HostCtx(g)
    mid = ctx.emask([(1, 2)])
    ok, _, _ = solve_game(g, 1, connected=True, monotone=True, first_clean=mid)
    assert ok
    ok, _, _ = solve_game(g, 0, connected=True, monotone=True, first_clean=mid)
    assert not ok


def test_solve_game_last_clean_constraint():
    g = star_graph(3)
    ctx = HostCtx(g)
    leg = ctx.emask([(0, 1)])
    ok, moves, _ = solve_game(
        g, 2, connected=True, monotone=True, last_clean=leg, witness=True
    )
    assert ok
    t = simulate(g, moves)
    before_last = t.clean_sets()[-2] if len(t.steps) > 1 else frozenset()
    assert (0, 1) not in before_last


def test_solve_game_guard_constraint():
    g = star_graph(3)
    ok, moves, _ = solve_game(
        g, 2, connected=True, monotone=True, guard=2, witness=True
    )
    if ok:
        t = simulate(g, moves)
        # once placed, the guard never leaves
        placed = False
        for st in t.steps:
            if st.move.kind == "p" and st.move.v == 2:
                placed = True
            if placed:
                assert 2 in st.positions


def test_rooted_start_is_reachable():
    # the start `rooted_game_value` searches from: e_start clean and
    # searchers on S_in, for every connected S_in (the empty one too)
    rng = random.Random(14)
    solved = 0
    for n in range(1, 6):
        for g in connected_graphs(n):
            for mask in range(1 << n):
                s_in = [v for v in range(n) if mask >> v & 1]
                if s_in and not g.induced(s_in)[0].is_connected():
                    continue
                for s_out in ([], rng.sample(range(n), rng.randint(1, n))):
                    rg = RootedGraph(g, frozenset(s_in), frozenset(s_out))
                    enh = enhance(rg)
                    ctx = HostCtx(enh.host)
                    clean, occ = ctx.emask(enh.e_start), sum(1 << v for v in s_in)
                    assert ctx.closure(clean, occ) == clean
                    assert ctx.edges_connected(clean)
                    rooted_game_value(rg)
                    solved += 1
    assert solved > 1000
    # any other start is refused; unstable: vertex 1 is unguarded
    # between clean 01 and dirty 12
    path3 = path_graph(3)
    for connected in (False, True):
        for monotone in (False, True):
            with pytest.raises(ValueError):
                solve_game(
                    path3, 2, connected=connected, monotone=monotone,
                    start_clean=HostCtx(path3).emask([(0, 1)]),
                )
    # stable but disconnected: searchers on 1 and 4 guard both clean edges
    path6 = path_graph(6)
    clean = HostCtx(path6).emask([(0, 1), (4, 5)])
    with pytest.raises(ValueError):
        solve_game(path6, 3, connected=True, start_clean=clean, start_occupied=0b10010)
    assert solve_game(path6, 3, start_clean=clean, start_occupied=0b10010)[0]


def test_budget_exhaustion_raises():
    g = complete_graph(5)
    with pytest.raises(BudgetExceeded):
        solve_game(g, 4, connected=True, monotone=True, budget=3)


def test_expansion_budget_exhaustion_raises():
    rg = RootedGraph(complete_graph(4))
    for fn in (cmp_value, mp_value):
        with pytest.raises(BudgetExceeded):
            fn(rg, budget=1)
        # a budget no level reaches leaves the value alone
        assert fn(rg, budget=10**6).value == fn(rg).value


def test_one_budget_exception_for_every_engine():
    import gso.contractions

    assert gso.contractions.BudgetExceeded is BudgetExceeded
    # the game side of cmp is bounded the same way
    rg = doubly_rooted(complete_graph(4), 0)
    with pytest.raises(BudgetExceeded):
        rooted_game_value(rg, budget=1)
    assert rooted_game_value(rg, budget=10**6).value == rooted_game_value(rg).value


def test_solve_game_builds_moves_only_for_a_witness(monkeypatch):
    import gso.solvers

    built = []

    def counting_move(*args):
        built.append(args)
        return Move(*args)

    monkeypatch.setattr(gso.solvers, "Move", counting_move)
    g = complete_graph(4)
    ok, moves, _ = solve_game(g, 4, connected=True, monotone=True)
    assert ok and moves is None and not built
    ok, moves, _ = solve_game(g, 4, connected=True, monotone=True, witness=True)
    assert ok and len(built) == len(moves)
    assert width(simulate(g, moves)) <= 4


def test_value_search_builds_host_tables_once(monkeypatch):
    built = []
    real = HostCtx.__init__

    def counting(self, g):
        built.append(g)
        real(self, g)

    monkeypatch.setattr(HostCtx, "__init__", counting)
    assert cmms_value(complete_graph(6)).value == 5
    assert len(built) == 1
    built.clear()
    rooted_game_value(doubly_rooted(complete_graph(4), 0))
    assert len(built) == 1


def test_contexts_that_never_solve_build_no_move_rows(monkeypatch):
    made = []
    real = HostCtx.__init__

    def recording(self, g):
        made.append(self)
        real(self, g)

    monkeypatch.setattr(HostCtx, "__init__", recording)
    g = cycle_graph(5)
    ctx = HostCtx(g)
    assert ctx.closure(ctx.emask([(0, 1), (1, 2)]), 0b00010) == 0
    t = simulate(g, [Move("p", 0), Move("p", 1), Move("s", 1, 2), Move("s", 2, 3)])
    assert width(t) == 2 and len(made) == 2
    assert all(c.move_rows is None and not c.game_moves for c in made)
    # the first solve builds one row per vertex: its removal, then its slides
    assert solvers.cms_decide(ctx, 2)
    assert [len(row) for row in ctx.move_rows] == [3] * 5
    assert ctx.move_rows[0][0] == [None, 0, 0, 0]


def test_value_search_stats_hold_levels_and_seconds():
    rg = doubly_rooted(complete_graph(4), 0)
    for res in (
        ms_value(cycle_graph(5)),
        cms_value(cycle_graph(5)),
        cmms_value(complete_graph(4)),
        rooted_game_value(rg),
        cmp_value(rg),
        mp_value(rg),
    ):
        levels = res.stats["levels"]
        assert len(levels) == res.value + 1
        assert res.stats["states"] == sum(levels)
        assert res.stats["seconds"] >= 0


def _neighbour_edges(g: Graph) -> list[list[tuple[int, int]]]:
    """(u, index of edge vu in g.edges) for each neighbour u of each v, in
    increasing order of u, read off g.adj and g.edges alone."""
    index = {e: i for i, e in enumerate(g.edges)}
    return [
        [(u, index[min(u, v), max(u, v)]) for u in range(g.n) if g.adj[v] >> u & 1]
        for v in range(g.n)
    ]


def _entries(group: list) -> tuple[int, list[list]]:
    """A group of `_moves` as (edges at the vacated vertex, entries), each
    entry [kind, v, u, searchers after the move, edges the move cleans,
    edges it cleans at the vacated vertex], computed as the solver
    computes them from the group header and its items."""
    iv, gv, rest, kept, occ, items = group
    out = []
    for u, ub, eb, iu in items:
        cleaned = kept | (eb if rest & ub else iu & occ)
        if gv is None:
            out.append(["p", u, None, rest | ub, cleaned, eb])
        elif u is None:
            out.append(["r", gv, None, rest | ub, cleaned, eb])
        else:
            out.append(["s", gv, u, rest | ub, cleaned, eb])
    return iv, out


def test_move_table_entries_clean_both_occupied_edges():
    # every searcher set with at most 3 members, unguarded and guarded at
    # each vertex; the table is shared by every k, so it is asked first
    # with no room for a placement, then with room for one
    for n in range(1, 7):
        for g in connected_graphs(n):
            ctx = HostCtx(g)
            both = lambda p: ctx.occupied(p)[0]  # noqa: E731
            nbrs = _neighbour_edges(g)
            at = [sum(1 << i for i, e in enumerate(g.edges) if v in e) for v in range(n)]
            for pmask in range(1 << n):
                size = pmask.bit_count()
                if size > 3:
                    continue
                for guard in [None, *range(n)]:
                    departures = []
                    if guard is not None and pmask == 0:
                        placements = [["p", guard, None, 1 << guard, 0, 0]]
                    else:
                        placements = [
                            ["p", v, None, pmask | 1 << v, both(pmask | 1 << v), 0]
                            for v in range(n)
                            if not pmask >> v & 1
                        ]
                        for v in range(n):
                            if not pmask >> v & 1 or v == guard:
                                continue
                            rest = pmask & ~(1 << v)
                            group = [["r", v, None, rest, both(rest), 0]]
                            for u, ei in nbrs[v]:
                                p2 = rest | 1 << u
                                group.append(["s", v, u, p2, both(p2) | 1 << ei, 1 << ei])
                            # the group is keyed by the vacated vertex's edges
                            departures.append((at[v], group))
                    tight = _moves(ctx, pmask, size, guard)
                    roomy = _moves(ctx, pmask, size + 1, guard)
                    case = (graph6_encode(g), pmask, guard)
                    assert [_entries(gr) for gr in tight] == departures, case
                    assert [_entries(gr) for gr in roomy] == [
                        (0, placements), *departures
                    ], case
                    # the departures are the same groups at every k, and
                    # each reads its vertex's row of the host's move rows
                    assert all(a is b for a, b in zip(roomy[1:], tight))
                    assert all(gr[5] is ctx.move_rows[gr[1]] for gr in tight)
                    assert _moves(ctx, pmask, size, guard) is tight


def _stable_sets(g: Graph, pmask: int) -> list[int]:
    """Every clean set of g in which each vertex off pmask has all or none
    of its edges clean: one choice per component of g - pmask (with the
    edges from it into pmask) and one per edge inside pmask."""
    units = []
    left = ((1 << g.n) - 1) & ~pmask
    while left:
        comp = grow = left & -left
        while grow:
            nxt = 0
            for v in range(g.n):
                if grow >> v & 1:
                    nxt |= g.adj[v]
            grow = nxt & left & ~comp
            comp |= grow
        left &= ~comp
        units.append(sum(1 << i for i, (u, v) in enumerate(g.edges) if (1 << u | 1 << v) & comp))
    units += [
        1 << i for i, (u, v) in enumerate(g.edges) if pmask >> u & 1 and pmask >> v & 1
    ]
    return [
        sum(x for j, x in enumerate(units) if pick >> j & 1) for pick in range(1 << len(units))
    ]


def test_group_rule_keeps_the_moves_the_per_move_rule_keeps():
    # every connected graph with n <= 6, every searcher set with at most 3
    # members, every guard and every stable clean set: a monotone solve
    # drops a group when the vacated vertex has a clean edge and two or
    # more dirty ones, and otherwise each entry whose dirty edges at the
    # vacated vertex, less the edge it cleans there, are neither none nor
    # all; that keeps exactly the moves after which inc[v] & q is empty
    # or all of inc[v], for q the clean set plus the edges the move cleans
    kept = dropped = skipped = 0
    for n in range(1, 7):
        for g in connected_graphs(n):
            ctx = HostCtx(g)
            for pmask in range(1 << n):
                if pmask.bit_count() > 3:
                    continue
                stable = _stable_sets(g, pmask)
                assert all(ctx.closure(c, pmask) == c for c in stable)
                for guard in [None, *range(n)]:
                    moves = [_entries(gr) for gr in _moves(ctx, pmask, 4, guard)]
                    for c in stable:
                        for iv, group in moves:
                            d = iv & ~c
                            skip = d & (d - 1) and d != iv
                            skipped += bool(skip)
                            for kind, v, u, p2, cleaned, ev in group:
                                x = d & ~ev
                                keep = not skip and not (x and x != iv)
                                at_v = ctx.inc[v] if kind != "p" else 0
                                y = at_v & (c | cleaned)
                                assert keep == (not y or y == at_v), (
                                    graph6_encode(g), pmask, guard, c, kind, v, u
                                )
                                kept += keep
                                dropped += not keep
    assert kept > 1_500_000 and dropped > 1_500_000 and skipped > 150_000, (
        kept, dropped, skipped
    )


def test_shared_context_solves_match_fresh_ones():
    from gso.solvers import _game_value, cms_decide, cmms_decide

    for rg in _game_golden_sample():
        g = rg.graph
        ctx = HostCtx(g)
        for connected, monotone in ((True, False), (True, True)):
            for k in (1, 2):
                kw = dict(connected=connected, monotone=monotone, witness=True)
                assert solve_game(ctx, k, **kw) == solve_game(g, k, **kw)
        assert cms_decide(ctx, 2) == cms_decide(g, 2)
        assert cmms_decide(ctx, 2) == cmms_decide(g, 2)
        for connected, monotone, fresh_value in (
            (False, True, ms_value),
            (True, False, cms_value),
            (True, True, cmms_value),
        ):
            shared = _game_value(ctx, connected, monotone, True)
            fresh = fresh_value(g, witness=True)
            assert (shared.value, shared.witness, shared.stats["levels"]) == (
                fresh.value, fresh.witness, fresh.stats["levels"],
            )


def test_checks_build_one_context_per_host(monkeypatch):
    from gso.canon import canonical_graph
    from gso.contractions import proper_contractions
    from gso.obstructions import branch_set, mine_branch_base, obr_set, verify_obr
    from gso.paperchecks import check_monotone_connected

    base = mine_branch_base(7)
    glued = obr_set(1, base)
    contractions = {c for g in glued for c in proper_contractions(g)}
    branches = branch_set(1, base)
    built = []
    real = HostCtx.__init__

    def counting(self, g):
        built.append(g)
        real(self, g)

    monkeypatch.setattr(HostCtx, "__init__", counting)
    assert check_monotone_connected(6).ok
    assert built == [g for n in range(1, 7) for g in connected_graphs(n)]
    built.clear()
    assert verify_obr(1, base)["ok"]
    assert len(contractions) < sum(len(proper_contractions(g)) for g in glued)
    # contraction hosts are glued from branch parts, not canonical graphs,
    # so each built host is compared by its canonical form
    classes = {canonical_graph(h) for h in built}
    assert len(built) == len(classes) == 360 + 120 + 8
    assert classes == contractions | set(glued) | {
        canonical_graph(b.graph) for b in branches
    }


# (graph6, s_in, s_out, ms, cms, cmms, rooted game) with each solve as
# (value, states explored over all levels).  The values were recorded
# before the game kernels went vertex-parallel (the ms column before the
# per-move tests went incremental), the counts when witness-less searches
# began popping their frontier last-in-first-out.  The state count is the
# machine-independent cost of a solve; it moves when a kernel, the move
# order or the pop order changes which states the search explores.
GAME_GOLDEN = [
    ('CF', [], [0], (2, 14), (2, 14), (2, 14), (2, 20)),
    ('CR', [], [1, 2], (1, 7), (1, 7), (1, 7), (2, 22)),
    ('Eqlw', [], [], (3, 36), (3, 40), (3, 36), (3, 58)),
    ('C~', [], [], (3, 21), (3, 23), (3, 21), (3, 39)),
    ('EB^w', [], [1, 4], (3, 43), (3, 53), (3, 43), (3, 64)),
    ('ECDg', [0, 3], [], (2, 22), (2, 28), (2, 22), (2, 9)),
    ('C^', [], [0, 1], (2, 11), (2, 12), (2, 11), (3, 37)),
    ('EINw', [], [0, 2], (3, 42), (3, 54), (3, 42), (3, 56)),
    ('Et\\w', [], [0], (4, 80), (4, 91), (4, 80), (4, 147)),
    ('E`~o', [], [3, 4], (3, 38), (3, 45), (3, 38), (3, 61)),
    ('C~', [3], [2, 3], (3, 21), (3, 23), (3, 21), (3, 13)),
    ('CR', [2, 3], [0, 1], (1, 7), (1, 7), (1, 7), (2, 2)),
    ('EC\\o', [], [0, 2], (3, 47), (3, 52), (3, 47), (3, 63)),
    ('D`[', [], [], (2, 14), (2, 15), (2, 14), (2, 24)),
    ('DR[', [1, 3], [], (2, 15), (2, 17), (2, 15), (2, 3)),
    ('EENg', [1, 5], [], (3, 42), (3, 43), (3, 42), (3, 8)),
    ('Es\\w', [], [2, 5], (4, 82), (4, 89), (4, 82), (4, 139)),
    ('E`\\w', [], [4], (3, 43), (3, 45), (3, 43), (3, 65)),
    ('D?{', [3, 4], [], (2, 19), (2, 22), (2, 19), (2, 10)),
    ('EhNW', [3, 5], [0], (3, 39), (3, 44), (3, 39), (3, 8)),
    ('Cr', [], [], (2, 10), (2, 10), (2, 10), (2, 23)),
    ('E}lw', [1, 2], [3], (4, 78), (4, 85), (4, 78), (4, 22)),
    ('CN', [2, 3], [3], (2, 11), (2, 12), (2, 11), (2, 5)),
    ('ER~w', [], [0], (3, 38), (3, 44), (3, 38), (3, 59)),
    ('E?lw', [], [], (2, 23), (2, 25), (2, 23), (2, 27)),
    ('CR', [1], [], (1, 7), (1, 7), (1, 7), (1, 3)),
    ('C^', [], [0, 2], (2, 11), (2, 12), (2, 11), (2, 22)),
    ('EqKw', [], [4], (3, 40), (3, 49), (3, 40), (3, 59)),
    ('Es\\w', [4], [2], (4, 82), (4, 89), (4, 82), (4, 49)),
    ('D`{', [3, 4], [0, 1], (2, 14), (2, 14), (2, 14), (2, 7)),
    ('E?Bw', [4, 5], [4], (2, 25), (2, 28), (2, 25), (3, 11)),
    ('DQK', [2, 4], [0, 3], (1, 9), (1, 9), (1, 9), (3, 7)),
    ('EF~w', [], [], (4, 82), (4, 87), (4, 82), (4, 158)),
    ('Cr', [2, 3], [0], (2, 10), (2, 10), (2, 10), (2, 2)),
    ('CF', [2], [3], (2, 14), (2, 14), (2, 14), (2, 7)),
    ('CF', [0, 3], [], (2, 14), (2, 14), (2, 14), (2, 5)),
    ('EJ^w', [], [], (4, 95), (4, 106), (4, 95), (4, 190)),
    ('ET\\w', [], [], (3, 41), (3, 41), (3, 41), (3, 65)),
    ('E@~w', [2, 4], [1, 2], (3, 40), (3, 48), (3, 40), (4, 17)),
    ('CN', [1, 3], [1, 2], (2, 11), (2, 12), (2, 11), (3, 4)),
]


def _game_golden_sample() -> list[RootedGraph]:
    rng = random.Random(20261018)
    out = []
    for _ in range(len(GAME_GOLDEN)):
        g = rng.choice(connected_graphs(rng.randint(4, 6)))
        s_in = frozenset(rng.sample(range(g.n), rng.randint(0, 2)))
        if s_in and not g.induced(sorted(s_in))[0].is_connected():
            s_in = frozenset()
        s_out = frozenset(rng.sample(range(g.n), rng.randint(0, 2)))
        out.append(RootedGraph(g, s_in, s_out))
    return out


def test_game_values_and_state_counts_are_golden():
    got = []
    for rg in _game_golden_sample():
        row = [graph6_encode(rg.graph), sorted(rg.s_in), sorted(rg.s_out)]
        for res in (
            ms_value(rg.graph),
            cms_value(rg.graph),
            cmms_value(rg.graph),
            rooted_game_value(rg),
        ):
            row.append((res.value, res.stats["states"]))
        got.append(tuple(row))
    assert got == GAME_GOLDEN


# cmp and mp (value, states explored over all levels) of each rooted
# graph of `_game_golden_sample`, in order.  The cmp values were recorded
# before the expansion search's connectivity test went incremental, the
# mp values (the unconnected path of the same search) before its moves
# were enumerated from dirty adjacency; the counts are those of the
# witness-less, last-in-first-out search.
CMP_GOLDEN = [
    ((2, 7), (2, 7)), ((2, 6), (2, 6)), ((3, 23), (3, 23)),
    ((3, 13), (3, 13)), ((3, 24), (3, 24)), ((2, 4), (2, 4)),
    ((3, 11), (3, 11)), ((3, 24), (3, 24)), ((4, 50), (4, 50)),
    ((3, 36), (3, 36)), ((3, 9), (3, 9)), ((2, 3), (2, 3)),
    ((3, 16), (3, 16)), ((2, 8), (2, 8)), ((2, 4), (2, 4)),
    ((3, 7), (3, 7)), ((4, 51), (4, 51)), ((3, 23), (3, 23)),
    ((2, 4), (2, 4)), ((3, 6), (3, 6)), ((2, 6), (2, 6)),
    ((4, 11), (4, 11)), ((2, 3), (2, 3)), ((3, 26), (3, 26)),
    ((2, 10), (2, 10)), ((1, 4), (1, 4)), ((2, 7), (2, 7)),
    ((3, 19), (3, 19)), ((4, 27), (4, 27)), ((2, 4), (2, 4)),
    ((3, 6), (3, 6)), ((3, 7), (3, 7)), ((4, 56), (4, 56)),
    ((2, 3), (2, 3)), ((2, 5), (2, 5)), ((2, 3), (2, 3)),
    ((4, 56), (4, 56)), ((3, 20), (3, 20)), ((4, 13), (4, 13)),
    ((3, 4), (3, 4)),
]


def test_cmp_values_and_state_counts_are_golden():
    got = []
    for rg in _game_golden_sample():
        row = []
        for res in (cmp_value(rg), mp_value(rg)):
            row.append((res.value, res.stats["states"]))
        got.append(tuple(row))
    assert got == CMP_GOLDEN


def test_cmp_witness_sets_are_golden():
    # one digest over the witness expansion of every sample graph: pins
    # the order in which the search meets its states, not only the counts
    h = hashlib.sha256()
    for rg in _game_golden_sample():
        for a in cmp_value(rg, witness=True).witness.sets:
            h.update(repr(sorted(a)).encode() + b"\n")
        h.update(b"--\n")
    assert h.hexdigest() == (
        "11bf52c4081786caed5ff9ec439af4b365e6e981b78524f3fad679209dfcc5b5"
    )


def test_game_witnesses_are_golden():
    # one digest over the game engine's witness moves on every sample
    # graph (ms, cms, cmms, then the rooted game): pins the breadth-first
    # order in which a witness search meets its states and tries its moves
    h = hashlib.sha256()
    for rg in _game_golden_sample():
        g = rg.graph
        for res in (
            ms_value(g, witness=True),
            cms_value(g, witness=True),
            cmms_value(g, witness=True),
            rooted_game_value(rg, witness=True),
        ):
            h.update(repr([(m.kind, m.v, m.u) for m in res.witness]).encode() + b"\n")
        h.update(b"--\n")
    assert h.hexdigest() == (
        "af187380ac058599f31f28c50a6f43a8d27ba92f22b3198efd9ce5233c807792"
    )


# (graph6, root) of the default level-1 branch base (`mine_branch_base(7)`)
# with (decision, states explored) of the four constrained solves that
# `verify_obr(1, ...)` makes on each branch, in its order: trunk first at
# width 1, root guarded at width 3, trunk first and trunk last at width 2.
# The decisions were recorded before the per-move tests went incremental,
# the counts with the witness-less search popping last-in-first-out.
CONSTRAINED_GOLDEN = [
    ('CN', 0, [(False, 6), (True, 4), (True, 5), (True, 4)]),
    ('C^', 0, [(False, 5), (True, 4), (True, 5), (True, 5)]),
    ('DC[', 0, [(False, 8), (True, 6), (True, 7), (True, 7)]),
    ('D?{', 0, [(False, 7), (True, 6), (True, 7), (True, 8)]),
    ('DIk', 1, [(False, 6), (True, 6), (True, 10), (True, 10)]),
    ('DB{', 3, [(False, 6), (True, 6), (True, 6), (True, 11)]),
    ('D@{', 2, [(False, 6), (True, 6), (True, 7), (True, 11)]),
    ('ECOw', 2, [(False, 8), (True, 6), (True, 7), (True, 8)]),
]


def test_constrained_solves_and_state_counts_are_golden():
    got = []
    for g6, root, _ in CONSTRAINED_GOLDEN:
        (b,) = base_branches([doubly_rooted(graph6_decode(g6), root)])
        trunk = HostCtx(b.graph).emask([b.trunk])
        row = []
        for width, kw in (
            (1, dict(first_clean=trunk)),
            (3, dict(guard=b.root)),
            (2, dict(first_clean=trunk)),
            (2, dict(last_clean=trunk)),
        ):
            ok, _, states = solve_game(b.graph, width, connected=True, monotone=True, **kw)
            row.append((ok, states))
        got.append((g6, root, row))
    assert got == CONSTRAINED_GOLDEN


def _full_test_game(host, k, connected, monotone, forbid, start_clean,
                    start_occupied, guard, first_clean, last_clean,
                    on_state=None):
    """The game search with a full stability and connectivity test on
    every move: the solver before its per-move tests went incremental.
    Returns (decision, witness as (kind, v, u) tuples, states explored).
    on_state(ctx, clean, occupied) sees each state as it is popped."""
    from collections import deque

    ctx = HostCtx(host)
    nbrs = _neighbour_edges(host)
    goal = ctx.full & ~forbid
    if start_occupied.bit_count() > k:
        return False, None, 0
    start = (start_clean, start_occupied)
    if start_clean == goal:
        return True, [], 0

    def moves(pmask):
        out = []
        if guard is not None and pmask == 0:
            if k >= 1:
                out.append(("p", guard, None, 1 << guard, 0))
            return out
        both = lambda p: ctx.occupied(p)[0]  # noqa: E731
        if pmask.bit_count() < k:
            for v in range(host.n):
                if not pmask >> v & 1:
                    p2 = pmask | (1 << v)
                    out.append(("p", v, None, p2, both(p2)))
        for v in range(host.n):
            if not pmask >> v & 1 or v == guard:
                continue
            rest = pmask & ~(1 << v)
            out.append(("r", v, None, rest, both(rest)))
            for u, ei in nbrs[v]:
                p2 = rest | (1 << u)
                out.append(("s", v, u, p2, both(p2) | (1 << ei)))
        return out

    parent = {start: None}
    queue = deque([start])
    explored = 0
    while queue:
        state = queue.popleft()
        c, pmask = state
        explored += 1
        if on_state is not None:
            on_state(ctx, c, pmask)
        for kind, v, u, p2, cleaned in moves(pmask):
            q = c | cleaned
            if monotone:
                if ctx.closure(q, p2) != q:
                    continue
                c2 = q
            else:
                c2 = ctx.closure(q, p2)
            if c2 & forbid:
                continue
            if first_clean is not None and c == 0 and c2:
                if c2 & first_clean != first_clean:
                    continue
            if last_clean is not None and c2 != goal and c2 & last_clean:
                continue
            if connected and not ctx.edges_connected(c2):
                continue
            st2 = (c2, p2)
            if st2 in parent:
                continue
            parent[st2] = (state, (kind, v, u))
            if c2 == goal:
                seq = []
                cur = st2
                while cur != start:
                    cur, mv = parent[cur]
                    seq.append(mv)
                return True, seq[::-1], explored
            queue.append(st2)
    return False, None, explored


def _random_start(rng: random.Random, ctx: HostCtx) -> tuple[int, int, int]:
    """A mid-game (clean, occupied) start and a forbidden edge mask (0
    in four draws of five) that leave some edge to clean: a random start,
    most often unstable; a stabilised one (closure of a random set plus
    the edges between searchers); or searchers on the ends of two random
    edges with the edges between them clean, sometimes disconnected.  A
    start already at the goal is drawn again: the search would return
    before its first move."""
    while True:
        occ = rng.getrandbits(ctx.g.n)
        clean = sum(1 << i for i in range(ctx.m) if rng.random() < 0.3)
        flavor = rng.randrange(3)
        if flavor == 1:
            clean = ctx.closure(clean | ctx.occupied(occ)[0], occ)
        elif flavor == 2:
            occ = ctx.ev[rng.randrange(ctx.m)] | ctx.ev[rng.randrange(ctx.m)]
            clean = ctx.occupied(occ)[0]
        forbid = rng.getrandbits(ctx.m) & ~clean if rng.random() < 0.2 else 0
        if clean != ctx.full & ~forbid:
            return clean, occ, forbid


def _full_test_cases(connected, monotone):
    """(host, k, start clean, start occupied, constraints) of the searches
    compared against `_full_test_game`.  A fixed stable, disconnected
    start with a spare searcher comes first.  Every start is searched:
    k is at least its searcher count and it is not at the goal.  Of the
    400 random starts, 59-75 per variant are unstable and 2 more in each
    connected variant are stable but disconnected; `solve_game` refuses
    those."""
    path = path_graph(6)
    plain = dict(forbid=0, guard=None, first_clean=None, last_clean=None)
    cases = [(path, 3, HostCtx(path).emask([(0, 1), (4, 5)]), 0b10010, plain)]
    rng = random.Random(4242 + 2 * connected + monotone)
    for _ in range(400):
        pool = connected_graphs(rng.randint(2, 6))
        if rng.random() < 0.5:
            pool = [h for h in pool if h.m <= h.n]
        g = rng.choice(pool)
        ctx = HostCtx(g)
        clean, occ, forbid = _random_start(rng, ctx)
        k = max(1, occ.bit_count() + rng.randint(0, 1))
        kw = dict(
            forbid=forbid,
            guard=rng.randrange(g.n) if rng.random() < 0.2 else None,
            first_clean=1 << rng.randrange(ctx.m) if rng.random() < 0.2 else None,
            last_clean=1 << rng.randrange(ctx.m) if rng.random() < 0.2 else None,
        )
        cases.append((g, k, clean, occ, kw))
    return cases


@pytest.mark.parametrize("connected", [False, True])
@pytest.mark.parametrize("monotone", [False, True])
def test_solve_game_matches_full_test_search(connected, monotone):
    # every start reaches the search (not over k, not at the goal); a
    # reachable one matches the reference search, any other raises
    compared = refused = 0
    for g, k, clean, occ, kw in _full_test_cases(connected, monotone):
        ctx = HostCtx(g)
        assert occ.bit_count() <= k and clean != ctx.full & ~kw["forbid"]
        unreachable = ctx.closure(clean, occ) != clean or (
            connected and not ctx.edges_connected(clean)
        )
        args = dict(connected=connected, monotone=monotone, start_clean=clean,
                    start_occupied=occ, witness=True, **kw)
        if unreachable:
            with pytest.raises(ValueError):
                solve_game(g, k, **args)
            refused += 1
            continue
        want = _full_test_game(
            g, k, connected, monotone, start_clean=clean, start_occupied=occ, **kw
        )
        ok, moves, states = solve_game(g, k, **args)
        wit = None if moves is None else [(m.kind, m.v, m.u) for m in moves]
        assert (ok, wit, states) == want, (graph6_encode(g), k, clean, occ, kw)
        compared += 1
    assert compared + refused == 401 and compared > 300 and refused > 40


def test_vacated_vertex_flood_equals_closure(rng):
    # every state a cms search in this file pops: the cms_value levels of
    # test_ms_cms_cmms_ordering and of the golden sample, and the
    # connected, non-monotone searches compared with `_full_test_game`
    plain = dict(forbid=0, guard=None, first_clean=None, last_clean=None)
    searches = []
    for g in [random_connected(rng, 5) for _ in range(40)] + [
        rg.graph for rg in _game_golden_sample()
    ]:
        searches += [(g, k, 0, 0, plain) for k in range(cms_value(g).value + 1)]
    searches += _full_test_cases(connected=True, monotone=False)
    moves_checked = flooded = 0
    for g, k, clean, occ, kw in searches:
        guard = kw["guard"]
        edges_at = [sum(1 << i for i, e in enumerate(g.edges) if v in e) for v in range(g.n)]

        def check(ctx, c, pmask):
            nonlocal moves_checked, flooded
            if ctx.closure(c, pmask) != c:
                # only a mid-game start may be unstable; its moves take
                # the full closure
                assert (c, pmask) == (clean, occ)
                return
            for iv, group in map(_entries, _moves(ctx, pmask, k, guard)):
                d = iv & ~c
                for kind, v, u, p2, cleaned, ev in group:
                    # a group is keyed by the vacated vertex's edges
                    assert iv == (0 if kind == "p" else edges_at[v])
                    q = c | cleaned
                    x = d & ~ev
                    got = q & ~ctx.floods(p2)[v] if x and x != iv else q
                    assert got == ctx.closure(q, p2), (graph6_encode(g), c, kind, v, u)
                    if got != q:
                        assert ctx.floods(p2)[v] == ctx.flood(1 << v, p2)
                    moves_checked += 1
                    flooded += got != q

        _full_test_game(
            g, k, True, False, start_clean=clean, start_occupied=occ,
            on_state=check, **kw,
        )
    assert moves_checked > 40_000 and flooded > 20_000, (moves_checked, flooded)


def _parent_bmask(ctx: HostCtx, a: int) -> int:
    """Vertex mask of the boundary of the clean set a, vertex by vertex."""
    out = 0
    for v in range(ctx.g.n):
        inc = ctx.inc[v]
        if inc & a and inc & ~a:
            out |= 1 << v
    return out


def _rebuilt_dadj(ctx: HostCtx, dirty: int) -> list[int]:
    """The dirty neighbours of each vertex, rebuilt from the dirty edges."""
    dadj = [0] * ctx.g.n
    for i, (u, w) in enumerate(ctx.edges):
        if dirty >> i & 1:
            dadj[u] |= 1 << w
            dadj[w] |= 1 << u
    return dadj


def _parent_jumps(ctx: HostCtx, target: int, a: int, k: int):
    """The expansion search's one-move transitions before they were
    enumerated from dirty adjacency: every subset of v's free dirty
    neighbours, each tested against every dirty edge, a placement and
    each slide yielded separately (so one clean set may come repeatedly).
    ctx is the enhanced host's `HostCtx`, whose last two vertices are the
    apexes u_in and u_out, and target its edges but E_out."""
    apex = 3 << ctx.g.n - 2
    bnd = _parent_bmask(ctx, a)
    dirty = target & ~a
    nbase = bnd.bit_count()
    if nbase > k:
        return
    dirty_ev = []
    m = dirty
    while m:
        i = (m & -m).bit_length() - 1
        m &= m - 1
        dirty_ev.append((i, ctx.ev[i]))
    for v in range(ctx.g.n):
        vb = 1 << v
        if vb & (bnd | apex):
            continue
        vinc = ctx.inc[v] & dirty
        if not vinc:
            continue
        dn = 0
        m = vinc
        while m:
            i = (m & -m).bit_length() - 1
            m &= m - 1
            dn |= ctx.ev[i] & ~vb
        dn &= ~apex
        pool = dn & ~bnd
        extras = [0]
        mm = pool
        bits = []
        while mm:
            b = mm & -mm
            mm &= mm - 1
            bits.append(b)
        for b in bits:
            extras.extend([e | b for e in extras])
        for s_extra in extras:
            occ = bnd | s_extra
            nocc = occ.bit_count()
            if nocc > k:
                continue
            if any(not evm & vb and not evm & ~occ for _, evm in dirty_ev):
                continue
            cleanable = 0
            m = vinc
            while m:
                i = (m & -m).bit_length() - 1
                m &= m - 1
                if ctx.ev[i] & ~vb & occ:
                    cleanable |= 1 << i
            if cleanable and nocc + 1 <= k:
                yield a | cleanable
            wm = occ & dn
            while wm:
                wb = wm & -wm
                wm &= wm - 1
                w = wb.bit_length() - 1
                d = 1 << ctx.eidx[(w, v) if w < v else (v, w)]
                m = vinc
                while m:
                    i = (m & -m).bit_length() - 1
                    m &= m - 1
                    if ctx.ev[i] & ~vb & occ & ~wb:
                        d |= 1 << i
                a2 = a | d
                if _parent_bmask(ctx, a2) & wb:
                    continue
                yield a2


@pytest.mark.parametrize("connected", [False, True], ids=["unconnected", "connected"])
def test_jumps_yield_each_parent_successor_once_with_its_boundary(connected):
    # every state the search reaches at width k, on random rooted graphs
    # (the unconnected search's states are a superset of the connected
    # one's); no yielded boundary is wider than k, so the search needs no
    # width test.  The connected reference keeps the parent's successors
    # whose clean set is connected, tested whole.
    rng = random.Random(31337)
    states = repeats = 0
    for _ in range(80):
        rg = random_rooted(rng, random_connected(rng, 7))
        ec = _ExpCtx(rg)
        ctx = HostCtx(enhance(rg).host)
        for k in range(5):
            seen = {ec.start}
            todo = [ec.start]
            while todo:
                a = todo.pop()
                parent = list(_parent_jumps(ctx, ec.target, a, k))
                if connected:
                    parent = [a2 for a2 in parent if ctx.edges_connected(a2)]
                want = list(dict.fromkeys(parent))
                dadj = _rebuilt_dadj(ctx, ec.target & ~a)
                got = list(_jumps(ec, a, _parent_bmask(ctx, a), dadj, k, connected))
                assert [a2 for a2, _ in got] == want, (graph6_encode(rg.graph), k, a)
                for a2, bnd2 in got:
                    assert bnd2 == _parent_bmask(ctx, a2)
                    assert bnd2.bit_count() <= k
                    if a2 not in seen:
                        seen.add(a2)
                        todo.append(a2)
                states += 1
                repeats += len(parent) > len(want)
    if connected:
        assert states > 1500 and repeats > 400
    else:
        assert states > 2000 and repeats > 500


def _rooted_sample(seed: int, count: int) -> list[RootedGraph]:
    """Random rooted graphs with n <= 7, led by the root shapes a random
    draw may miss: no roots, S_out alone, and S_in equal to S_out."""
    g = cycle_graph(5)
    rgs = [
        RootedGraph(g),
        RootedGraph(g, s_out=frozenset({0, 2})),
        RootedGraph(g, frozenset({0, 1}), frozenset({0, 1})),
    ]
    rng = random.Random(seed)
    rgs += [random_rooted(rng, random_connected(rng, 7)) for _ in range(count)]
    return rgs


def test_exp_ctx_matches_the_enhanced_host():
    # the one-pass context numbers the edges as `HostCtx(enhance(rg).host)`
    # does and reads the same masks off them
    overlap = 0
    for rg in _rooted_sample(7, 300):
        enh = enhance(rg)
        ctx = HostCtx(enh.host)
        ec = _ExpCtx(rg)
        assert [(u, w) for u, w, _, _ in ec.ends] == list(ctx.edges)
        assert [ub | wb for _, _, ub, wb in ec.ends] == list(ctx.ev)
        assert tuple(ec.inc) == ctx.inc
        assert ec.e_in == ctx.emask(enh.e_in)
        assert ec.start == ctx.emask(enh.e_start)
        assert ec.target == ctx.full & ~ctx.emask(enh.e_out)
        assert ec.start_bnd == _parent_bmask(ctx, ec.start)
        assert ec.start_dadj == _rebuilt_dadj(ctx, ec.target & ~ec.start)
        assert frozenset(ec.edges(ec.target)) == ctx.eset(ec.target)
        overlap += bool(rg.s_in & rg.s_out)
    assert overlap > 30


@pytest.mark.parametrize("connected", [False, True], ids=["unconnected", "connected"])
def test_carried_dirty_table_matches_a_rebuilt_one(monkeypatch, connected):
    # at every state the search pops, at every width k, the table the
    # queue carries equals one rebuilt from the state's dirty edges
    jumps = solvers._jumps
    checked = 0

    def checking(ec, a, bnd, dadj, k, conn):
        nonlocal checked
        assert dadj == _rebuilt_dadj(ctx, ec.target & ~a)
        checked += 1
        return jumps(ec, a, bnd, dadj, k, conn)

    monkeypatch.setattr(solvers, "_jumps", checking)
    for rg in _rooted_sample(11, 120):
        ctx = HostCtx(enhance(rg).host)
        if connected:
            cmp_value(rg)
        else:
            mp_value(rg)
    assert checked > 1000


def test_witnesses_live_on_the_enhanced_host():
    # the witness's host is `enhance(rg).host`, edges in the same order,
    # and the witness is a valid expansion of the reported width
    for rg in _rooted_sample(13, 120):
        enh = enhance(rg)
        res = cmp_value(rg, witness=True)
        wit = res.witness
        assert wit.host == enh.host and wit.host.edges == enh.host.edges
        validate_expansion(wit, enh.e_in, enh.e_out)
        assert expansion_cost(wit, enh) == res.value
        ok, wit2 = cmp_decide(rg, res.value, witness=True)
        assert ok and wit2 == wit


# A decision-only search pops its frontier last-in-first-out, a witness
# search breadth-first.  Which states a search can reach does not depend
# on the order it visits them, so both orders give the same decision,
# and a no-decision visits the whole reachable set either way.


@pytest.mark.parametrize("connected", [False, True])
@pytest.mark.parametrize("monotone", [False, True])
def test_game_decision_does_not_depend_on_pop_order(connected, monotone):
    noes = yeses = 0
    for n in range(1, 7):
        for g in connected_graphs(n):
            for k in range(4):
                kw = dict(connected=connected, monotone=monotone)
                ok, _, states = solve_game(g, k, **kw)
                ok_w, moves, states_w = solve_game(g, k, witness=True, **kw)
                assert ok == ok_w and (moves is not None) == ok, (graph6_encode(g), k)
                if ok:
                    yeses += 1
                else:
                    assert states == states_w, (graph6_encode(g), k)
                    noes += 1
    assert noes > 300 and yeses > 150, (noes, yeses)


@pytest.mark.parametrize("connected", [False, True], ids=["unconnected", "connected"])
def test_expansion_decision_does_not_depend_on_pop_order(connected):
    noes = yeses = 0
    for rg in _rooted_sample(23, 300):
        ec = _ExpCtx(rg)
        for k in range(5):
            ok, _, states = _expansion_decide(ec, k, connected, witness=False)
            ok_w, wit, states_w = _expansion_decide(ec, k, connected, witness=True)
            assert ok == ok_w and (wit is not None) == ok, (graph6_encode(rg.graph), k)
            if ok:
                yeses += 1
            else:
                assert states == states_w, (graph6_encode(rg.graph), k)
                noes += 1
    assert noes > 600 and yeses > 600, (noes, yeses)


def test_value_search_levels_below_the_value_do_not_depend_on_pop_order():
    # every level below the value is a no-decision, so only the last
    # level's count may differ with and without a witness
    differ = 0
    for rg in _game_golden_sample():
        g = rg.graph
        for value in (
            lambda w: ms_value(g, witness=w),
            lambda w: cms_value(g, witness=w),
            lambda w: cmms_value(g, witness=w),
            lambda w: rooted_game_value(rg, witness=w),
            lambda w: cmp_value(rg, witness=w),
            lambda w: mp_value(rg, witness=w),
        ):
            plain, wit = value(False), value(True)
            assert plain.value == wit.value, graph6_encode(g)
            assert plain.stats["levels"][:-1] == wit.stats["levels"][:-1], graph6_encode(g)
            differ += plain.stats["levels"][-1] != wit.stats["levels"][-1]
    assert differ > 200, differ
