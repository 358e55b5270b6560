import pytest

from gso.expansions import Expansion, validate_expansion
from gso.gen import connected_graphs
from gso.graphs import (
    Graph,
    RootedGraph,
    complete_graph,
    cycle_graph,
    enhance,
    norm_edge,
    path_graph,
    star_graph,
)
from gso.recognizer import (
    decide_cmms_le_2,
    root_components,
    spine_degree,
    spine_structure,
)
from gso.solvers import cmp_decide, cmp_plain

from conftest import random_connected


def check_certificate(g, ok, cert):
    assert cert["value_le_2"] == ok
    if not ok:
        return
    if cert["method"] == "trivial":
        return
    sets = tuple(
        frozenset(norm_edge(*e) for e in a) for a in cert["expansion"]
    )
    host = enhance(RootedGraph(g)).host
    ex = Expansion(host, sets)
    validate_expansion(ex)


def test_trivial_and_small_cases():
    ok, cert = decide_cmms_le_2(Graph.from_edges(1, []))
    assert ok and cert["method"] == "trivial"
    ok, cert = decide_cmms_le_2(path_graph(4))
    assert ok
    ok, cert = decide_cmms_le_2(cycle_graph(5))
    assert ok
    ok, cert = decide_cmms_le_2(complete_graph(4))
    assert not ok


def test_rejects_disconnected():
    with pytest.raises(ValueError):
        decide_cmms_le_2(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_matches_solver_exhaustively():
    for n in range(1, 6):
        for g in connected_graphs(n):
            ok, cert = decide_cmms_le_2(g)
            assert ok == (cmp_plain(g) <= 2)
            check_certificate(g, ok, cert)


def test_matches_solver_randomly_at_six(rng):
    for _ in range(40):
        g = random_connected(rng, 6)
        ok, cert = decide_cmms_le_2(g)
        assert ok == (cmp_plain(g) <= 2)
        check_certificate(g, ok, cert)


def test_root_components_partition():
    g = star_graph(3)
    comps = root_components(g, 0)
    assert len(comps) == 3
    for rg, vs in comps:
        assert rg.graph.n == 2 and 0 in vs


def test_spine_degree_values():
    # a path looks like fans from every vertex
    g = path_graph(5)
    assert all(spine_degree(g, v) <= 1 for v in range(g.n))
    # K_4 is no fan from anywhere
    assert spine_degree(complete_graph(4), 0) >= 1


def test_spine_structure_consistency(rng):
    for _ in range(30):
        g = random_connected(rng, 6)
        st = spine_structure(g)
        if st is None:
            continue
        assert len(st.central_blocks) == len(st.central_cuts) - 1
        assert len(st.parts) >= 3
        kinds = [pt.kind for pt in st.parts]
        assert kinds[0] == "extremal" and kinds[-1] == "extremal"
        assert len(st.labels) == sum(1 for k in kinds if k != "fan")
        # part edges partition the host edge set
        seen = []
        for pt in st.parts:
            for u, v in pt.rooted.graph.edges:
                seen.append(norm_edge(pt.gids[u], pt.gids[v]))
        assert sorted(seen) == sorted(g.edges)


def test_root_components_computed_once_per_vertex(monkeypatch):
    import gso.recognizer as recognizer

    calls = []
    real = recognizer.root_components

    def counted(g, v):
        calls.append(v)
        return real(g, v)

    monkeypatch.setattr(recognizer, "root_components", counted)
    for n in range(1, 7):
        for g in connected_graphs(n):
            calls.clear()
            decide_cmms_le_2(g)
            assert len(calls) <= g.n


def test_check_8_re_solves_only_answers_not_from_the_solver(monkeypatch):
    import gso.paperchecks

    solved = []

    def spy(rg, k):
        solved.append(rg.graph)
        return cmp_decide(rg, k)

    monkeypatch.setattr(gso.paperchecks, "cmp_decide", spy)
    graphs = [g for n in range(1, 6) for g in connected_graphs(n)]
    fast = [g for g in graphs if decide_cmms_le_2(g)[1]["method"] != "solver"]
    res = gso.paperchecks.check_recognizer(n_max=5)
    assert res.ok and res.name == f"8 recognizer agrees with solver on {len(graphs)} graphs"
    assert solved == fast and 0 < len(fast) < len(graphs)


def test_check_8_catches_a_wrong_fast_path_answer(monkeypatch):
    import gso.paperchecks

    monkeypatch.setattr(
        gso.paperchecks, "decide_cmms_le_2", lambda g: (True, {"method": "fan-cover"})
    )
    res = gso.paperchecks.check_recognizer(n_max=5)
    wrong = sum(1 for n in range(1, 6) for g in connected_graphs(n) if cmp_plain(g) > 2)
    assert not res.ok and res.detail == f"{wrong} disagreements" and wrong > 0
