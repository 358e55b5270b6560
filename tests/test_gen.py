import io

import pytest

from gso.canon import certificate
from gso.gen import connected_graphs, enumerate_connected_graphs
from gso.gio import write_graph6_lines

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


def test_enumerate_streams_same_set():
    for n in range(1, 6):
        streamed = {certificate(g) for g in enumerate_connected_graphs(n)}
        assert streamed == {certificate(g) for g in connected_graphs(n)}


def test_enumerate_from_file(tmp_path):
    graphs = connected_graphs(4)
    path = tmp_path / "four.g6"
    with open(path, "w") as fh:
        write_graph6_lines(graphs, fh)
    got = list(enumerate_connected_graphs(4, source=str(path)))
    assert {certificate(g) for g in got} == {certificate(g) for g in graphs}
