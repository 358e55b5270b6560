import itertools

import pytest

from gso import canon, gen
from gso.canon import certificate, unique
from gso.gen import connected_graphs
from gso.graphs import Graph

# A001349: connected graphs on n unlabeled vertices
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


@pytest.mark.parametrize("n,count", sorted(CONNECTED_COUNTS.items()))
def test_connected_counts(n, count):
    graphs = connected_graphs(n)
    assert len(graphs) == count


def test_no_duplicates_and_all_connected():
    for n in range(1, 7):
        graphs = connected_graphs(n)
        certs = {certificate(g) for g in graphs}
        assert len(certs) == len(graphs)
        assert all(g.is_connected() and g.n == n for g in graphs)


def test_connected_graphs_in_strict_certificate_order():
    for n in range(1, 8):
        certs = [certificate(g) for g in connected_graphs(n)]
        assert all(a < b for a, b in zip(certs, certs[1:]))


def unpruned_children(n):
    """Every graph the generator would certify without orbit pruning: each
    connected (n-1)-vertex graph plus a vertex on each nonempty subset."""
    return [
        Graph.from_edges(n, list(g.edges) + [(v, n - 1) for v in nb])
        for g in connected_graphs(n - 1)
        for size in range(1, n)
        for nb in itertools.combinations(range(n - 1), size)
    ]


def test_orbit_pruning_keeps_the_unpruned_output(monkeypatch):
    # a fresh cache, so that every size is generated (and certified) here
    monkeypatch.setattr(gen, "_cache", {})
    calls = []
    real = canon.canonical_graph

    def counted(g):
        calls.append(g.n)
        return real(g)

    monkeypatch.setattr(canon, "canonical_graph", counted)
    got = [connected_graphs(n) for n in range(1, 8)]
    # 7815 children without pruning
    assert len(calls) == 4159
    monkeypatch.setattr(canon, "canonical_graph", real)
    for n in range(2, 8):
        assert got[n - 1] == tuple(unique(unpruned_children(n)))
