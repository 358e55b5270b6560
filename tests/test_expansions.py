import hashlib

import pytest

from gso.expansions import (
    Expansion,
    InvalidExpansion,
    expansion_cost,
    expansion_from_chunks,
    expansion_to_strategy,
    strategy_to_expansion,
    validate_expansion,
)
from gso.graphs import (
    Graph,
    RootedGraph,
    complete_graph,
    enhance,
    norm_edge,
    path_graph,
    star_graph,
)
from gso.simulate import is_monotone, simulate, width
from gso.solvers import cmp_value, mp_value

from test_solvers import _game_golden_sample


def chain(host, *sets):
    return Expansion(host, tuple(frozenset(a) for a in sets))


def grow(host, order, start=frozenset()):
    sets = [frozenset(start)]
    cur = set(start)
    for e in order:
        cur.add(norm_edge(*e))
        sets.append(frozenset(cur))
    return Expansion(host, tuple(sets))


def test_validate_accepts_path_sweep():
    g = path_graph(3)
    ex = grow(g, [(0, 1), (1, 2)])
    validate_expansion(ex)


def test_validate_rejects_big_step():
    g = path_graph(3)
    ex = chain(g, set(), {(0, 1), (1, 2)})
    with pytest.raises(InvalidExpansion, match="more than one"):
        validate_expansion(ex)


def test_validate_rejects_wrong_endpoints():
    g = path_graph(3)
    ex = grow(g, [(0, 1)])
    with pytest.raises(InvalidExpansion, match="last set"):
        validate_expansion(ex)


def test_validate_rejects_disconnected_set():
    g = path_graph(4)
    ex = grow(g, [(0, 1), (2, 3), (1, 2)])
    with pytest.raises(InvalidExpansion, match="not connected"):
        validate_expansion(ex)


def test_validate_rejects_shrinking():
    g = path_graph(2)
    ex = chain(g, set(), {(0, 1)}, set(), {(0, 1)})
    with pytest.raises(InvalidExpansion):
        validate_expansion(ex)


def test_cost_single_edge():
    g = path_graph(2)
    assert expansion_cost(grow(g, [(0, 1)])) == 1


def test_cost_trivial_expansion_is_zero():
    g = Graph.from_edges(1, [])
    rg = RootedGraph(g, frozenset(), frozenset())
    enh = enhance(rg)
    ex = chain(enh.host, enh.e_in)
    # nothing to clean at all: no searcher ever needed
    assert expansion_cost(ex, enh) == 0


def test_cost_star_needs_two():
    g = star_graph(3)
    ex = grow(g, [(0, 1), (0, 2), (0, 3)])
    assert expansion_cost(ex) == 2


def test_cost_is_order_sensitive():
    g = path_graph(4)
    sweep = grow(g, [(0, 1), (1, 2), (2, 3)])
    assert expansion_cost(sweep) == 1


def test_cost_floor_is_root_count():
    g = path_graph(2)
    rg = RootedGraph(g, frozenset({0, 1}), frozenset())
    enh = enhance(rg)
    ex = grow(enh.host, [(0, 1)], start=enh.e_in)
    # both in-roots carry a searcher from the start
    assert expansion_cost(ex, enh) == 2


def test_rooted_expansion_needs_its_enhancement():
    rg = RootedGraph(path_graph(3), frozenset({0, 1}), frozenset())
    enh = enhance(rg)
    ex = grow(enh.host, [(0, 1), (1, 2)], start=enh.e_in)
    assert expansion_cost(ex, enh) == 2
    # without the enhancement the expansion is read as unrooted
    with pytest.raises(InvalidExpansion, match="first set"):
        expansion_cost(ex)


def test_cost_rejects_a_host_other_than_the_enhancement():
    enh = enhance(RootedGraph(path_graph(3)))
    ex = grow(path_graph(3), [(0, 1), (1, 2)])
    assert expansion_cost(ex) == 1
    with pytest.raises(InvalidExpansion, match="host differs"):
        expansion_cost(ex, enh)


def test_unrealizable_order_raises():
    # the pendant edge (0, 3) cannot be cleaned mid-stream: the move
    # into vertex 0 would also have to clean edges listed for later
    g = Graph.from_edges(4, [(0, 3), (1, 2), (1, 3), (2, 3)])
    ex = grow(g, [(1, 3), (1, 2), (0, 3), (2, 3)])
    with pytest.raises(InvalidExpansion, match="not realizable"):
        expansion_cost(ex)


def test_triangle_good_order_costs_two():
    g = complete_graph(3)
    ex = grow(g, [(0, 1), (1, 2), (0, 2)])
    assert expansion_cost(ex) == 2


def test_expansion_to_strategy_roundtrip():
    rg = RootedGraph(star_graph(3), frozenset({0}), frozenset({0}))
    enh = enhance(rg)
    order = [norm_edge(0, 1), norm_edge(0, 2), norm_edge(0, 3)]
    ex = grow(enh.host, order, start=enh.e_in)
    cost = expansion_cost(ex, enh)
    moves = expansion_to_strategy(enh, ex)
    t = simulate(enh.host, moves)
    assert is_monotone(t)
    assert width(t) == cost
    assert t.final_clean >= frozenset(order)
    back = strategy_to_expansion(t, enh.e_in, enh.e_out)
    validate_expansion(back, enh.e_in, enh.e_out)
    assert expansion_cost(back, enh) <= width(t)


def test_expansion_from_chunks_lays_out_touching_edges_first():
    g = path_graph(5)
    # empty E_in: nothing is laid out, so the first edge left opens the
    # chunk; then (1, 2) touches it and goes before (0, 1)
    ex = expansion_from_chunks(g, frozenset(), [[(2, 3), (0, 1), (1, 2)], [], [(3, 4)]])
    assert ex == grow(g, [(2, 3), (1, 2), (0, 1), (3, 4)])
    # no edge of the second chunk touches (0, 1): its first edge goes first
    ex = expansion_from_chunks(g, frozenset(), [[(0, 1)], [(3, 4), (2, 3)]])
    assert ex == grow(g, [(0, 1), (3, 4), (2, 3)])
    # the ends of E_in count as laid out
    enh = enhance(RootedGraph(path_graph(3), frozenset({2})))
    ex = expansion_from_chunks(enh.host, enh.e_in, [[(0, 1), (1, 2)]])
    assert ex == grow(enh.host, [(1, 2), (0, 1)], start=enh.e_in)
    # one set per prefix, each one edge larger
    assert [len(a) for a in ex.sets] == [1, 2, 3]


def test_strategy_to_expansion_rejects_nonmonotone():
    from gso.simulate import p, r, s

    g = path_graph(3)
    t = simulate(g, [p(0), s(0, 1), r(1)])
    with pytest.raises(InvalidExpansion):
        strategy_to_expansion(t)


def test_realization_of_the_witnesses_is_golden():
    # one digest over the cost and the strategy of the cmp and mp witness
    # of every sample graph: pins the realization's choice of moves, not
    # only its width
    h = hashlib.sha256()
    for rg in _game_golden_sample():
        enh = enhance(rg)
        for solve in (cmp_value, mp_value):
            ex = solve(rg, witness=True).witness
            h.update(repr(expansion_cost(ex, enh)).encode() + b"\n")
            h.update(repr(expansion_to_strategy(enh, ex)).encode() + b"\n")
        h.update(b"--\n")
    assert h.hexdigest() == (
        "42bcb8fd0b93a31fc11287404f4f6a90aa8fc4c9c3a54118e8bd9e36a2ae349f"
    )
