from collections import Counter
from math import comb

import networkx as nx
import pytest

from gso.canon import canonical_graph, certificate, is_isomorphic
from gso.contractions import contains_any, proper_contractions
from gso.gen import connected_graphs
from gso.gio import graph6_encode
from gso.graphs import (
    RootedGraph,
    complete_bipartite,
    complete_graph,
    component_graphs,
    cycle_graph,
    doubly_rooted,
    k23_plus,
    path_graph,
    star_graph,
)
from gso.obstructions import (
    ABOVE,
    Branch,
    _identify_roots,
    _obr_contractions,
    base_branches,
    branch_count,
    branch_count_lower_bound_holds,
    branch_set,
    fan_check_solver,
    fan_check_structural,
    glue_family_at_root,
    is_obstruction,
    mine_branch_base,
    mine_fan_base,
    mine_obstructions,
    obr_count,
    obr_count_lower_bound_holds,
    obr_set,
    verify_obr,
)
from gso.solvers import cmms_value, cmp_plain, cms_value, mp_value, ms_value


# --- minimal obstructions -------------------------------------------------


def test_mine_cmp_1_obstructions():
    got = mine_obstructions(5, "cmp", 1)
    assert len(got) == 2
    assert any(is_isomorphic(g, complete_graph(3)) for g in got)
    assert any(is_isomorphic(g, star_graph(3)) for g in got)


def test_mining_certifies_each_split_and_child_once(monkeypatch):
    import gso.canon
    import gso.gen
    import gso.obstructions

    # objects, not ids: every recorded graph stays alive, so no id is reused
    searched, splits, children = [], [], []
    real_canon = gso.canon._canon
    real_splits = gso.gen._splits
    real_children = gso.obstructions._children

    def canon_spy(g, *args):
        searched.append(g)
        return real_canon(g, *args)

    def splits_spy(g, roots):
        for h in real_splits(g, roots):
            splits.append(h)
            yield h

    def children_spy(*args):
        for c in real_children(*args):
            children.append(c)
            yield c

    monkeypatch.setattr(gso.canon, "_canon", canon_spy)
    monkeypatch.setattr(gso.gen, "_splits", splits_spy)
    monkeypatch.setattr(gso.obstructions, "_children", children_spy)
    stats = []
    got = mine_obstructions(6, "cmp", 1, stats=stats)
    assert len(got) == 2
    ids = [id(g) for g in searched]
    # no graph is searched twice: a candidate's own search, made when it
    # was split off, yields its certificate, positions and automorphisms
    assert len(set(ids)) == len(ids)
    split_ids = {id(h) for h in splits}
    child_ids = {id(c) for c in children}
    # only splits and children are searched; screened splits are not
    assert set(ids) <= split_ids | child_ids
    assert sum(i in split_ids for i in ids) == sum(r["splits"] for r in stats)
    assert sum(r["screened"] for r in stats) == len(splits) - sum(
        r["splits"] for r in stats
    )


def test_mine_mp_1_minor_obstructions():
    got = mine_obstructions(5, "mp", 1, relation="minor")
    assert len(got) == 2


def _mine_by_partition_search(n_max, param, k, relation):
    """Reference: prune each candidate with a partition search against every
    smaller found obstruction, then test the survivors with is_obstruction."""
    found = []
    for n in range(1, n_max + 1):
        # a list, not a generator: size n is tested against smaller sizes only
        found.extend(
            [
                g
                for g in connected_graphs(n)
                if not contains_any(g, found, relation)
                and is_obstruction(g, param, k, relation)
            ]
        )
    return found


@pytest.mark.parametrize(
    "param,k,relation",
    [
        ("cmp", 1, "contraction"),
        ("cmp", 2, "contraction"),
        ("mp", 1, "minor"),
        ("mp", 2, "minor"),
        ("cmp", 2, "minor"),
    ],
)
def test_mining_matches_partition_search_reference(param, k, relation):
    got = mine_obstructions(6, param, k, relation)
    want = _mine_by_partition_search(6, param, k, relation)
    assert [graph6_encode(g) for g in got] == [graph6_encode(g) for g in want]


def _five_with_a_cycle(g):
    """Above 0 only on 5-vertex graphs with a cycle, so larger graphs drop
    back to 0: not monotone under either relation."""
    return int(g.n == 5 and g.m >= 5)


@pytest.mark.parametrize("relation", ["contraction", "minor"])
def test_mining_needs_no_monotone_parameter(relation):
    got = mine_obstructions(6, _five_with_a_cycle, 0, relation)
    want = [g for g in connected_graphs(5) if g.m >= 5]
    if relation == "minor":
        # a graph with a cycle has a spanning subgraph with exactly one
        want = [g for g in want if g.m == 5]
    assert got == want


# name -> value: the reference reads each parameter's value, not the
# decisions at k that mining reads
VALUES = {
    "cmp": cmp_plain,
    "mp": lambda g: max(mp_value(RootedGraph(c)).value for c in component_graphs(g)),
    "ms": lambda g: ms_value(g).value,
    "cms": lambda g: cms_value(g).value,
    "cmms": lambda g: cmms_value(g).value,
}


def _mine_by_generation(n_max, param, k, relation="contraction"):
    """Reference: the mining loop before split mining.  It visits every
    connected graph by size and edge count and keeps the certificates of
    the graphs that contain or equal a found obstruction."""
    from gso.canon import canonical_certificate
    from gso.obstructions import _children

    fn = param if callable(param) else VALUES[param]
    bad = set()
    found = []
    for n in range(1, n_max + 1):
        fresh = []
        for g in sorted(connected_graphs(n), key=lambda g: g.m):
            if any(certificate(c) in bad for c in _children(g, relation)):
                bad.add(canonical_certificate(g))
            elif fn(g) > k:
                cert = canonical_certificate(g)
                bad.add(cert)
                fresh.append((cert, g))
        found.extend(g for _, g in sorted(fresh, key=lambda p: p[0]))
    return found


@pytest.mark.parametrize(
    "n_max,param,k,relation",
    [
        (6, "cmp", 1, "contraction"),
        (6, "cmp", 2, "contraction"),
        (6, "mp", 1, "minor"),
        (6, "mp", 2, "minor"),
        (6, "cmp", 2, "minor"),
        (6, "cms", 1, "contraction"),
        (6, "ms", 1, "minor"),
        (6, _five_with_a_cycle, 0, "contraction"),
        (6, _five_with_a_cycle, 0, "minor"),
        (7, "cmp", 2, "contraction"),
    ],
)
def test_split_mining_matches_the_generation_reference(n_max, param, k, relation):
    got = [graph6_encode(g) for g in mine_obstructions(n_max, param, k, relation)]
    assert got == [graph6_encode(g) for g in _mine_by_generation(n_max, param, k, relation)]
    if n_max == 7:
        # the `mine` benchmark workload and its reference output
        assert got == ["C~", "DFw", "DF{", "EElw", "FCSrW", "FAIZw"]


@pytest.mark.parametrize(
    "param,want,good",
    [
        # cmp 0 holds only K1, so K2 is the one obstruction
        ("cmp", ["A_"], [1, 0, 0, 0, 0]),
        # every connected graph is good
        (lambda g: 0, [], [1, 1, 2, 6, 21]),
        # K1 itself exceeds k, so nothing is split
        (lambda g: 1, ["@"], [0, 0, 0, 0, 0]),
    ],
    ids=["cmp", "none-above", "all-above"],
)
def test_mining_stats_count_every_candidate(param, want, good):
    stats = []
    got = mine_obstructions(5, param, 0, stats=stats)
    assert [graph6_encode(g) for g in got] == want
    assert [r["n"] for r in stats] == [1, 2, 3, 4, 5]
    assert [r["good"] for r in stats] == good
    for r in stats:
        assert r["evaluated"] == r["candidates"] - r["rejected"]
        assert r["evaluated"] == r["good"] + r["obstructions"]
    assert sum(r["obstructions"] for r in stats) == len(got)


@pytest.mark.parametrize("name", sorted(ABOVE))
def test_each_decision_at_k_agrees_with_the_value(name):
    value, above = VALUES[name], ABOVE[name]
    for n in range(1, 7):
        for g in connected_graphs(n):
            v = value(g)
            assert [above(g, k) for k in range(-1, 4)] == [
                v > k for k in range(-1, 4)
            ], graph6_encode(g)


def test_splits_reach_every_connected_graph():
    # with nothing above k every connected graph is good, so the pruned
    # splits must still reach each class: 853 connected graphs have n=7
    stats = []
    assert mine_obstructions(7, lambda g: 0, 0, stats=stats) == []
    assert [r["good"] for r in stats] == [len(connected_graphs(n)) for n in range(1, 8)]
    assert [r["good"] for r in stats] == [1, 1, 2, 6, 21, 112, 853]


def test_one_edge_per_orbit_gives_every_child_class():
    from gso.canon import canonical_labelling
    from gso.obstructions import _children, _edge_orbit_mins

    for n in range(2, 7):
        for g in connected_graphs(n):
            edges = _edge_orbit_mins(g, canonical_labelling(g)[2])
            for relation in ("contraction", "minor"):
                want = {certificate(c) for c in _children(g, relation)}
                got = [certificate(c) for c in _children(g, relation, edges)]
                assert set(got) == want, graph6_encode(g)


def test_level_two_obstruction_values():
    for g in (complete_graph(4), complete_bipartite(2, 3), k23_plus()):
        assert is_obstruction(g, "cmp", 2)


def test_cycle_is_not_an_obstruction():
    # contracting a cycle keeps the parameter at 2
    assert not is_obstruction(cycle_graph(5), "cmp", 2)


def test_is_obstruction_rejects_disconnected():
    from gso.graphs import Graph

    with pytest.raises(ValueError):
        is_obstruction(Graph.from_edges(4, [(0, 1), (2, 3)]), "cmp", 1)


# --- gluing ---------------------------------------------------------------


def rooted_paths(sizes):
    return [doubly_rooted(path_graph(n), 0) for n in sizes]


def rooted_cycles(sizes):
    return [doubly_rooted(cycle_graph(n), 0) for n in sizes]


@pytest.mark.parametrize("fam_size,m", [(3, 2), (4, 3), (5, 3)])
def test_glue_counts_follow_multiset_formula(fam_size, m):
    # flowers of cycles: the cycle-length multiset is recoverable, so
    # distinct multisets never collide
    fam = rooted_cycles(range(3, 3 + fam_size))
    got = glue_family_at_root(fam, m)
    assert len(got) == comb(fam_size + m - 1, m)


def test_glue_counts_can_collide():
    # end-rooted paths of lengths 2..4 glued in pairs: {2,4} and {3,3}
    # both give P_5, so the multiset formula overcounts
    fam = rooted_paths([2, 3, 4])
    assert len(glue_family_at_root(fam, 2)) == comb(4, 2) - 1


def test_glue_two_edges_makes_a_path():
    fam = rooted_paths([2])
    (g,) = glue_family_at_root(fam, 2)
    assert is_isomorphic(g, path_graph(3))


def test_glue_rejects_bad_m():
    with pytest.raises(ValueError):
        glue_family_at_root(rooted_paths([2]), 0)


# --- fan checks and base mining -------------------------------------------


def test_fan_checks_on_small_graphs():
    assert fan_check_structural(path_graph(4), 0)
    assert fan_check_structural(star_graph(3), 0)
    assert not fan_check_structural(star_graph(3), 1)
    assert not fan_check_structural(complete_graph(4), 0)


def test_structural_fans_pass_the_solver_test():
    from gso.gen import connected_graphs

    for n in range(1, 6):
        for g in connected_graphs(n):
            for v in range(g.n):
                if fan_check_structural(g, v):
                    assert fan_check_solver(g, v)


def test_solver_fans_have_no_cycle_off_the_root():
    # the rule `root_components` and `is_fan` skip searches by: a graph
    # doubly rooted at v with a cycle in g - v is no fan
    from gso.gen import connected_graphs
    from gso.recognizer import is_fan

    seen = Counter()
    for n in range(1, 8):
        for g in connected_graphs(n):
            for v in range(g.n):
                forest = g.is_forest(((1 << g.n) - 1) & ~(1 << v))
                fan = fan_check_solver(g, v)
                assert forest or not fan, (graph6_encode(g), v)
                assert is_fan(doubly_rooted(g, v)) == fan
                seen[forest, fan] += 1
    assert set(seen) == {(True, True), (True, False), (False, False)}
    with pytest.raises(ValueError):
        is_fan(RootedGraph(path_graph(2), {0}, {1}))


def test_fan_base_is_frozen():
    base = mine_fan_base(7)
    got = sorted(
        (graph6_encode(b.graph), min(b.s_in)) for b in base
    )
    assert got == [
        ("CF", 0),
        ("CN", 0),
        ("C^", 0),
        ("DB{", 3),
        ("DIk", 1),
    ]


def test_fan_base_tests_outerplanarity_once_per_graph(monkeypatch):
    import gso.obstructions as obstructions
    from gso.gen import connected_graphs

    calls = []
    real = obstructions.is_outerplanar

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(obstructions, "is_outerplanar", counted)
    mine_fan_base(6)
    graphs = [g for n in range(1, 7) for g in connected_graphs(n)]
    assert len(graphs) == 143
    assert len(calls) == len(graphs)


def _parent_minimal_rejects(n_max, accepts):
    """`_minimal_rejects` before it took one root per automorphism orbit:
    every root is certified, and the first of each rooted class kept."""
    from gso.blocks import is_outerplanar
    from gso.canon import rooted_certificate
    from gso.graphs import contract_edge_rooted

    out = {}
    for n in range(1, n_max + 1):
        for g in connected_graphs(n):
            if not is_outerplanar(g):
                continue
            reps = set()
            for v in range(g.n):
                rg = doubly_rooted(g, v)
                rc = rooted_certificate(rg)
                if rc in reps:
                    continue
                reps.add(rc)
                if accepts(rg):
                    continue
                if all(accepts(contract_edge_rooted(rg, e)) for e in g.edges):
                    out.setdefault(rc, rg)
    return [out[c] for c in sorted(out)]


def test_orbit_roots_are_the_rooted_classes():
    from gso.blocks import is_outerplanar
    from gso.canon import rooted_certificate
    from gso.gen import with_orbit_mins

    graphs = [
        (g, roots)
        for n in range(1, 8)
        for g, roots in with_orbit_mins(n)
        if is_outerplanar(g)
    ]
    assert len(graphs) == 240
    for g, roots in graphs:
        first = {}
        for v in range(g.n):
            first.setdefault(rooted_certificate(doubly_rooted(g, v)), v)
        assert list(roots) == sorted(first.values()), graph6_encode(g)


def test_fan_shape_matches_the_fan_definition():
    # networkx oracle: every component of g - v is a single vertex, or a
    # path (isomorphic to one) with an end adjacent to v
    from gso.obstructions import _fan_shape
    from test_graphs import to_nx

    def fan(h, v):
        for comp in nx.connected_components(h.subgraph(set(h) - {v})):
            sub = h.subgraph(comp)
            if len(comp) == 1:
                continue
            if not nx.is_isomorphic(sub, nx.path_graph(len(comp))):
                return False
            if not any(sub.degree(x) == 1 and h.has_edge(x, v) for x in comp):
                return False
        return True

    seen = Counter()
    for n in range(1, 8):
        for g in connected_graphs(n):
            h = to_nx(g)
            for v in range(n):
                want = fan(h, v)
                assert _fan_shape(g, v) == want, (graph6_encode(g), v)
                seen[want] += 1
    assert seen[True] > 0 and seen[False] > 0


def test_base_mining_matches_every_root_loop(monkeypatch):
    import gso.obstructions as obstructions
    from gso.obstructions import _fan_shape
    from gso.solvers import cmp_decide

    certified = []
    real = obstructions.rooted_certificate

    def counted(rg):
        certified.append(rg)
        return real(rg)

    for mine, accepts in (
        (mine_fan_base, lambda rg: _fan_shape(rg.graph, min(rg.s_in))),
        (mine_branch_base, lambda rg: cmp_decide(rg, 2)),
    ):
        want = _parent_minimal_rejects(7, accepts)
        certified.clear()
        monkeypatch.setattr(obstructions, "rooted_certificate", counted)
        got = mine(7)
        monkeypatch.setattr(obstructions, "rooted_certificate", real)
        assert got == want
        # only the kept rejects are certified
        assert len(certified) == len(got) and set(certified) == set(got)


def test_branch_base_is_frozen():
    base = mine_branch_base(7)
    assert sorted(b.graph.n for b in base) == [4, 4, 5, 5, 5, 5, 5, 6]
    certs = {certificate(b.graph) for b in base}
    assert len(certs) == len(base)
    # every member fails the solver fan test at its root but all of its
    # rooted contractions pass it
    for b in base:
        assert not fan_check_solver(b.graph, min(b.s_in))


# --- branches -------------------------------------------------------------


def test_branch_validation():
    g = path_graph(3)
    Branch(g, 0, (0, 1), 1)
    Branch(g, 1, (1, 2), 1)  # level 1 allows any root degree
    with pytest.raises(ValueError):
        Branch(g, 1, (1, 2), 2)  # higher levels need a degree-1 root


def test_base_branch_trunks():
    base = [doubly_rooted(path_graph(3), 1)]
    (b,) = base_branches(base)
    assert b.level == 1
    assert b.trunk == (0, 1)  # smallest root-incident edge


@pytest.mark.parametrize(
    "s_in,s_out", [((), ()), ((0,), (2,)), ((0, 1), (0, 1))], ids=["none", "apart", "two"]
)
def test_base_branches_need_one_double_root(s_in, s_out):
    g = path_graph(3)
    base = [doubly_rooted(g, 1), RootedGraph(g, frozenset(s_in), frozenset(s_out))]
    with pytest.raises(ValueError, match="base member 1 must be doubly rooted"):
        base_branches(base)


def test_branch_counts():
    assert branch_count(1) == 5
    assert branch_count(2) == 15
    assert branch_count(3) == 120
    assert obr_count(1) == 35


def test_branch_set_sizes():
    base = mine_fan_base(7)
    br1 = branch_set(1, base)
    assert len(br1) == branch_count(1, len(base))
    br2 = branch_set(2, base)
    assert len(br2) == branch_count(2, len(base))
    assert all(b.level == 2 and b.graph.degree(b.root) == 1 for b in br2)


def test_obr_level_one_size():
    base = mine_fan_base(7)
    fam = obr_set(1, base)
    assert len(fam) == obr_count(1, len(base))
    assert all(g.is_connected() for g in fam)


def test_branch_keyed_contractions_are_the_contraction_classes():
    base = mine_branch_base(7)
    for k, members in ((1, base), (2, base[:2])):
        got = list(_obr_contractions(branch_set(k, members)))
        assert [g for g, _ in got] == obr_set(k, members)
        for g, keyed in got:
            classes = proper_contractions(g)
            assert len(keyed) == len(classes)
            assert {
                canonical_graph(_identify_roots(parts)[0]) for parts in keyed.values()
            } == set(classes)


def test_verify_obr_level_one_searches(monkeypatch):
    import gso.canon
    import gso.obstructions
    import gso.solvers

    base = mine_branch_base(7)
    calls = Counter()
    real_canon, real_solve = gso.canon._canon, gso.solvers.solve_game

    def canon(*args, **kwargs):
        calls["canon"] += 1
        return real_canon(*args, **kwargs)

    def solve(*args, **kwargs):
        calls["solve"] += 1
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(gso.canon, "_canon", canon)
    monkeypatch.setattr(gso.solvers, "solve_game", solve)
    monkeypatch.setattr(gso.obstructions, "solve_game", solve)
    report = verify_obr(1, base)
    assert (report["graphs"], report["branches"], report["ok"]) == (120, 8, True)
    # 120 glued graphs + 8 branches + 38 rooted branch contractions; the
    # solves: one per glued graph, two per each of the 360 contraction
    # classes, four per branch
    assert calls == {"canon": 166, "solve": 120 + 2 * 360 + 4 * 8}


def test_verify_obr_level_two_on_two_base_members():
    report = verify_obr(2, mine_branch_base(7)[:2])
    assert (report["graphs"], report["branches"]) == (10, 3)
    assert report["violations"] == [] and report["ok"]


def test_verify_obr_lists_contraction_violations_by_class(monkeypatch):
    # with every decision no, every contraction breaks the claim: each
    # glued graph lists its contraction classes once, in certificate order
    import gso.obstructions

    base = mine_branch_base(7)[:4]
    monkeypatch.setattr(gso.obstructions, "cmms_decide", lambda g, k: False)
    got = [v for v in verify_obr(1, base)["violations"] if v[0] == "contraction"]
    assert got == [
        ("contraction", certificate(g).decode(), certificate(c).decode())
        for g in obr_set(1, base)
        for c in proper_contractions(g)
    ]


def test_lower_bounds_hold():
    for k in range(1, 7):
        assert branch_count_lower_bound_holds(k)
        assert obr_count_lower_bound_holds(k)


def test_branch_counts_refuse_a_negative_base_size():
    for call in (
        lambda: branch_count(1, -1),
        lambda: branch_count(2, -3),
        lambda: obr_count(1, -1),
        lambda: branch_count_lower_bound_holds(1, -1),
        lambda: obr_count_lower_bound_holds(2, -3),
    ):
        with pytest.raises(ValueError, match="base size must be at least 0"):
            call()
    assert branch_count(1, 0) == obr_count(1, 0) == 0


@pytest.mark.parametrize("k", [0, -1])
def test_branch_functions_refuse_levels_below_one(k):
    base = [doubly_rooted(path_graph(3), 0)]
    for call in (
        lambda: branch_set(k, base),
        lambda: obr_set(k, base),
        lambda: branch_count(k),
        lambda: obr_count(k),
        lambda: branch_count_lower_bound_holds(k),
        lambda: obr_count_lower_bound_holds(k),
    ):
        with pytest.raises(ValueError, match="at least 1"):
            call()
