"""Check 10 (`check_d1`) on families built in the test, not external data."""

from collections import Counter

import pytest

from gso import contractions, obstructions, paperchecks
from gso.canon import certificate
from gso.graphs import Graph, complete_graph, contract_edge
from gso.obstructions import mine_branch_base, obr_set
from gso.paperchecks import check_d1


@pytest.fixture(scope="module")
def family():
    """The level-1 glued family: 120 (cmp, 2) obstructions on 10 to 16 vertices."""
    return list(obr_set(1, mine_branch_base(7)))


def test_check_d1_refuses_one_class_repeated():
    res = check_d1([complete_graph(4)] * 177)
    assert not res.ok and res.detail == "1 duplicate classes"


def test_check_d1_tests_members_alone(monkeypatch, family):
    # per-member minimality decides every comparable pair, so no
    # containment search runs, even on the 10 to 16 vertex glued graphs
    def refuse(*args, **kwargs):
        raise AssertionError("check 10 ran a containment search")

    monkeypatch.setattr(contractions, "is_contraction", refuse)
    monkeypatch.setattr(paperchecks, "is_contraction", refuse, raising=False)
    res = check_d1(family)
    assert not res.ok and res.detail == f"count {len(family)} != 177"


def test_check_d1_decides_each_contraction_class_once(monkeypatch, family):
    # the members share one verdict table: every member and every class
    # of single-edge contractions across the family is decided once
    decided = Counter()
    above = obstructions.ABOVE["cmp"]

    def counting(g, k):
        decided[certificate(g)] += 1
        return above(g, k)

    monkeypatch.setitem(obstructions.ABOVE, "cmp", counting)
    res = check_d1(family)
    assert res.detail == f"count {len(family)} != 177"
    classes = [{certificate(contract_edge(g, e)) for e in g.edges} for g in family]
    children = set().union(*classes)
    assert max(decided.values()) == 1
    assert len(decided) == len(family) + len(children)
    assert len(children) < sum(map(len, classes))  # members share classes


def test_check_d1_reports_a_comparable_pair_as_not_an_obstruction():
    # K4 with the edge 01 subdivided contracts to K4
    k4 = complete_graph(4)
    subdivided = Graph.from_edges(5, [(0, 4), (4, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    res = check_d1([k4, subdivided])
    assert not res.ok
    assert "not an obstruction: n=5 m=7" in res.detail.split("; ")
