import pytest

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
from gso.simulate import HostCtx, Move, is_monotone, simulate, width
from gso.solvers import (
    BudgetExceeded,
    cmms_value,
    cmp_decide,
    cmp_plain,
    cmp_value,
    cms_value,
    mp_plain,
    mp_value,
    ms_value,
    rooted_game_value,
    solve_game,
)
from gso.expansions import expansion_to_strategy

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


def test_mp_plain_path():
    assert mp_plain(path_graph(4)) == 1
    assert mp_plain(complete_graph(3)) == 2


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
