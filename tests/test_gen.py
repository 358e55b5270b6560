import itertools

import pytest

from gso import canon, gen
from gso.canon import canonical_labelling, certificate, unique
from gso.gen import connected_graphs, with_orbit_mins
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
    """Every connected graph the generator must reach, without its pruning:
    each connected (n-1)-vertex graph plus a vertex on each nonempty subset."""
    return [
        Graph.from_edges(n, list(g.edges) + [(v, n - 1) for v in nb])
        for g in connected_graphs(n - 1)
        for size in range(1, n)
        for nb in itertools.combinations(range(n - 1), size)
    ]


def test_orbit_pruning_keeps_the_unpruned_output(monkeypatch):
    # a fresh cache, so that every size is generated (and searched) here
    monkeypatch.setattr(gen, "_cache", {})
    # objects, not ids: every recorded graph stays alive, so no id is reused
    labelled, searched = [], []
    real_labelling, real_canon = gen.canonical_labelling, canon._canon

    def labelling_spy(g):
        labelled.append(g)
        return real_labelling(g)

    def canon_spy(g, *args):
        searched.append(g)
        return real_canon(g, *args)

    monkeypatch.setattr(gen, "canonical_labelling", labelling_spy)
    monkeypatch.setattr(canon, "_canon", canon_spy)
    got = [connected_graphs(n) for n in range(1, 8)]
    monkeypatch.undo()
    # one search per split that the mirror, stabiliser and largest-edge
    # rules keep (1,168), and one per graph of sizes 1-6 (143) for the
    # automorphisms that prune its splits
    assert len(labelled) == 1311
    parents = {id(g) for graphs in got[:6] for g in graphs}
    assert sum(id(g) in parents for g in labelled) == 143
    # each split is searched once, by canonical_labelling alone: no
    # other search (certificate, canonical_graph) runs beside it
    assert [id(g) for g in searched] == [id(g) for g in labelled]
    assert len({id(g) for g in searched}) == len(searched)
    # the brute-force children, deduplicated by `unique`, are the
    # independent check on the generator
    for n in range(2, 8):
        assert got[n - 1] == tuple(unique(unpruned_children(n)))


def test_kept_orbits_are_the_full_groups_orbits():
    for n in range(1, 7):
        pairs = with_orbit_mins(n)
        assert [g for g, _ in pairs] == list(connected_graphs(n))
        for g, roots in pairs:
            # found on a split, then carried to the canonical graph
            group = [p for p in itertools.permutations(range(n)) if g.relabel(p) == g]
            assert roots == tuple(sorted({min(p[v] for p in group) for v in range(n)}))


def test_stabiliser_rule_keeps_every_split_class():
    # at every root, the splits kept with the automorphisms give the same
    # classes as the mirror and largest-edge rules alone, both with the
    # automorphisms a search finds and (n <= 5) with the whole group
    kept = alone = 0
    for n in range(1, 7):
        for g, roots in with_orbit_mins(n):
            groups = [canonical_labelling(g)[2]]
            if n <= 5:
                perms = itertools.permutations(range(n))
                groups.append([p for p in perms if g.relabel(p) == g])
            for v in roots:
                want = [certificate(h) for _, h in gen._splits(g, [v], [])]
                for autos in groups:
                    got = [certificate(h) for _, h in gen._splits(g, [v], autos)]
                    assert set(got) == set(want), (g, v)
                    kept += len(got)
                    alone += len(want)
    # the rule does prune
    assert kept < alone
