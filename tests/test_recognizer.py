import hashlib
import json
import random
from collections import Counter
from itertools import combinations

import networkx as nx
import pytest

import gso.recognizer as recognizer
import gso.solvers as solvers
from gso.expansions import (
    Expansion,
    InvalidExpansion,
    expansion_cost,
    expansion_to_strategy,
    validate_expansion,
)
from gso.gen import connected_graphs
from gso.graphs import (
    Graph,
    RootedGraph,
    complete_graph,
    cycle_graph,
    doubly_rooted,
    enhance,
    norm_edge,
    path_graph,
    rev,
    star_graph,
)
from gso.recognizer import (
    SpinePart,
    decide_cmms_le_2,
    root_components,
    spine_degree,
    spine_structure,
)
from gso.simulate import is_monotone, simulate, width
from gso.solvers import cmp_decide, cmp_plain, cmp_value, mp_value

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
    # a component with a cycle off the root is no fan and is not built
    for v in range(4):
        assert root_components(complete_graph(4), v) == [(None, (0, 1, 2, 3))]
    # the triangle 2-3-4 hangs off 1; the path 1-0 and the pendant 5 do not
    g = Graph.from_edges(6, [(0, 1), (1, 2), (1, 5), (2, 3), (2, 4), (3, 4)])
    comps = root_components(g, 1)
    assert [vs for _, vs in comps] == [(0, 1), (1, 2, 3, 4), (1, 5)]
    assert comps[1][0] is None
    assert [rg.graph.m for rg, _ in (comps[0], comps[2])] == [1, 1]
    # a cycle through the root is no cycle off it: the triangle at 2 is built
    comps = root_components(g, 2)
    assert [vs for _, vs in comps] == [(0, 1, 2, 5), (2, 3, 4)]
    assert comps[1][0] == doubly_rooted(cycle_graph(3), 0)


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
        assert sum(pt.kind == "central" for pt in st.parts) == len(st.central_cuts) - 1
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
            # the rows reach the wrapped function: a graph with edges calls it
            assert 0 < len(calls) <= g.n or g.m == 0


RECORDS_N7_SHA256 = "a402461229e663a0012e3ee01e60450a82780d28e88e7564b720d58c85545a08"


def test_records_are_pinned_and_witnesses_are_searched_only_where_spliced(monkeypatch):
    # a witness is searched for each root component at a fan-cover
    # anchor, each spine part and each solver answer, and nowhere else
    witnesses = []
    real = solvers._expansion_decide

    def spy(ec, k, connected, witness, budget=None):
        witnesses.append(witness)
        return real(ec, k, connected, witness, budget)

    monkeypatch.setattr(solvers, "_expansion_decide", spy)
    graphs = [g for n in range(1, 8) for g in connected_graphs(n)]
    records = [list(decide_cmms_le_2(g)) for g in graphs]
    searched = sum(witnesses)
    monkeypatch.undo()
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    assert digest == RECORDS_N7_SHA256

    used = Counter()
    for g, (_, cert) in zip(graphs, records):
        if cert["method"] == "fan-cover":
            used["fan-cover"] += len(root_components(g, cert["anchor"]))
        elif cert["method"] == "spine":
            used["spine"] += len(spine_structure(g).parts)
        elif cert["method"] == "solver":
            used["solver"] += 1
    assert used == {"fan-cover": 316, "spine": 9, "solver": 831}
    assert searched == sum(used.values()) == 1156


def test_cycles_off_the_root_are_never_searched(monkeypatch):
    # a component with a cycle off its root needs three searchers
    # (`root_components`), so neither the recognizer's rows nor the branch
    # base search one; these are all the expansion searches the two make
    from gso.obstructions import mine_branch_base
    from test_graphs import to_nx

    searches = []
    real_search = solvers._expansion_decide

    def counted(ec, k, connected, witness, budget=None):
        searches.append(ec)
        return real_search(ec, k, connected, witness, budget)

    asked = []
    real_decide = recognizer.cmp_decide

    def spy(rg, k, witness=False):
        asked.append(rg)
        return real_decide(rg, k, witness)

    monkeypatch.setattr(solvers, "_expansion_decide", counted)
    monkeypatch.setattr(recognizer, "cmp_decide", spy)
    graphs = [g for n in range(1, 8) for g in connected_graphs(n)]
    for g in graphs:
        decide_cmms_le_2(g)
    recognized = len(searches)
    searches.clear()
    mine_branch_base(7)
    monkeypatch.undo()
    assert (len(graphs), recognized, len(searches)) == (996, 2413, 703)

    # every graph doubly rooted at one vertex that is searched is a forest
    # off that vertex; the spine's extremal and central parts and
    # `label_block` are rooted otherwise, and the solver's answers not at all
    rooted = 0
    for rg in asked:
        if len(rg.s_in) == 1 and rg.s_out == rg.s_in:
            h = to_nx(rg.graph)
            h.remove_nodes_from(rg.s_in)
            assert len(h) == 0 or nx.is_forest(h)
            rooted += 1
    assert len(asked) == 2413 + 703 and rooted == 2255


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


# --- the fan cover and splice as they were before the fan cover spliced
# straight into the unrooted graph: a rooted certificate out of the
# anchor, validated, shrunk to an unrooted one and validated again


def _rooted_splice(glued, parts):
    enh_g = enhance(glued)
    first_rg, first_gids, _ = parts[0]
    if frozenset(first_gids[v] for v in first_rg.s_in) != glued.s_in:
        raise InvalidExpansion("first part must carry the glued in-roots")
    sets = []
    base = frozenset()
    for pi, (rg, gids, ex) in enumerate(parts):
        enh_p = enhance(rg)

        def gmap(e):
            out = []
            for x in e:
                if x == enh_p.u_in:
                    if pi != 0:
                        return None
                    out.append(enh_g.u_in)
                elif x == enh_p.u_out:
                    return None
                else:
                    out.append(gids[x])
            return norm_edge(*out)

        for a in ex.sets:
            mapped = {ge for e in a if (ge := gmap(e)) is not None}
            cur = base | mapped
            if not sets or sets[-1] != cur:
                sets.append(frozenset(cur))
        base = sets[-1]
    return Expansion(enh_g.host, tuple(sets))


def _shrink_to_unrooted(g, rooted_ex, e_in):
    host = enhance(RootedGraph(g)).host
    sets = [frozenset()]
    for a in rooted_ex.sets:
        cur = frozenset(e for e in a if e not in e_in)
        if sets[-1] != cur:
            sets.append(cur)
    return Expansion(host, tuple(sets))


def _validated(ex, enh=None):
    try:
        return expansion_cost(ex, enh) <= 2
    except InvalidExpansion:
        return False


def _rooted_fan_cover(g, v, row):
    if recognizer._nonfans(row):
        return None
    glued = doubly_rooted(g, v)
    parts = [(rg, vs, cmp_decide(rg, 2, witness=True)[1]) for rg, vs, _ in row]
    try:
        ex = _rooted_splice(glued, parts)
        enh = enhance(glued)
        if not _validated(ex, enh):
            return None
        shrunk = _shrink_to_unrooted(g, ex, enh.e_in)
        return shrunk if _validated(shrunk) else None
    except InvalidExpansion:
        return None


def _rooted_spine_certificate(g, st):
    if "x" in st.labels or ("->" in st.labels and "<-" in st.labels):
        return None
    forward = "<-" not in st.labels
    seq = st.parts if forward else tuple(
        SpinePart(pt.kind, rev(pt.rooted), pt.gids) for pt in reversed(st.parts)
    )
    wits = []
    for pt in seq:
        ok, wit = cmp_decide(pt.rooted, 2, witness=True)
        if not ok:
            return None
        wits.append((pt.rooted, pt.gids, wit))
    try:
        ex = _rooted_splice(RootedGraph(g), wits)
    except InvalidExpansion:
        return None
    return ex if _validated(ex) else None


def rooted_decide_cmms_le_2(g):
    if g.m == 0:
        return True, {"method": "trivial", "value_le_2": True}
    rows = []
    for v in range(g.n):
        rows.append(recognizer._root_fans(g, v))
        ex = _rooted_fan_cover(g, v, rows[-1])
        if ex is not None:
            return True, {
                "method": "fan-cover",
                "anchor": v,
                "value_le_2": True,
                "expansion": recognizer._expansion_json(ex),
            }
    st = recognizer._spine(g, rows)
    if st is not None:
        ex = _rooted_spine_certificate(g, st)
        if ex is not None:
            return True, {
                "method": "spine",
                "central_cuts": list(st.central_cuts),
                "labels": list(st.labels),
                "value_le_2": True,
                "expansion": recognizer._expansion_json(ex),
            }
    ok, wit = cmp_decide(RootedGraph(g), 2, witness=True)
    cert = {"method": "solver", "value_le_2": ok}
    if ok:
        cert["expansion"] = recognizer._expansion_json(wit)
    return ok, cert


def random_connected_graph(rng, n):
    """A random spanning tree on n vertices plus each other pair with
    probability 1/10, relabelled at random."""
    edges = {norm_edge(v, rng.randrange(v)) for v in range(1, n)}
    edges |= {(u, v) for v in range(n) for u in range(v) if rng.random() < 0.1}
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(n, sorted(norm_edge(perm[u], perm[v]) for u, v in edges))


def parity_graphs():
    """Every connected graph with n <= 7, then 60 seeded random connected
    graphs each with n = 8 and n = 9."""
    graphs = [g for n in range(1, 8) for g in connected_graphs(n)]
    rng = random.Random(8)
    graphs += [random_connected_graph(rng, n) for n in (8, 9) for _ in range(60)]
    return graphs


def test_unrooted_fan_cover_matches_the_rooted_one():
    methods = set()
    for g in parity_graphs():
        got = decide_cmms_le_2(g)
        assert got == rooted_decide_cmms_le_2(g)
        methods.add(got[1]["method"])
    assert methods == {"trivial", "fan-cover", "spine", "solver"}


def test_connected_search_has_a_sense_of_direction():
    # connected search from a to b can need fewer searchers than from b to
    # a, which `label_block` relies on; unconnected search cannot
    pairs, cmp_differs = {}, {}
    for n in range(2, 7):
        pairs[n] = cmp_differs[n] = 0
        for g in connected_graphs(n):
            for a, b in combinations(range(n), 2):
                rg = RootedGraph(g, {a}, {b})
                pairs[n] += 1
                if cmp_value(rg).value != cmp_value(rev(rg)).value:
                    cmp_differs[n] += 1
                assert mp_value(rg).value == mp_value(rev(rg)).value
    assert pairs[6] == 1680
    assert cmp_differs == {2: 0, 3: 0, 4: 0, 5: 0, 6: 6}

    # the smallest case: a path 0-1-5 hung on the 4-cycle 2-3-5-4
    g = Graph.from_edges(6, [(0, 1), (1, 5), (2, 3), (2, 4), (3, 5), (4, 5)])
    forward = RootedGraph(g, {2}, {3})
    for rg, want in ((forward, 2), (rev(forward), 3)):
        res = cmp_value(rg, witness=True)
        assert res.value == want
        enh = enhance(rg)
        t = simulate(enh.host, expansion_to_strategy(enh, res.witness))
        # every edge is cleared but the exit edges, which are never entered
        assert t.final_clean == frozenset(enh.host.edges) - enh.e_out
        assert is_monotone(t)
        assert width(t) == want
