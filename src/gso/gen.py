"""Connected graph enumeration, one representative per isomorphism class.

Each n-vertex connected graph is reached by attaching a new vertex to a
nonempty neighbour subset of some connected (n-1)-vertex graph (every
connected graph has a non-cut vertex), deduplicated by certificate.
Results are cached per size since several acceptance checks sweep the
same ranges.  An external graph6 file can replace local generation.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

from .canon import certificate, unique
from .gio import read_graph6_lines
from .graphs import Graph

_cache: dict[int, tuple[Graph, ...]] = {}


def connected_graphs(n: int) -> tuple[Graph, ...]:
    if n < 1:
        raise ValueError("n must be positive")
    if n in _cache:
        return _cache[n]
    if n == 1:
        out = (Graph.from_edges(1, []),)
    else:
        out = tuple(
            unique(
                Graph.from_edges(n, list(g.edges) + [(v, n - 1) for v in nb])
                for g in connected_graphs(n - 1)
                for size in range(1, n)
                for nb in combinations(range(n - 1), size)
            )
        )
    _cache[n] = out
    return out


def enumerate_connected_graphs(n: int, source: str | None = None) -> Iterator[Graph]:
    """Stream connected graphs on n vertices; `source` ingests a graph6 file."""
    if source is not None:
        seen: set[bytes] = set()
        with open(source) as fh:
            for g in read_graph6_lines(fh):
                if g.n != n or not g.is_connected():
                    continue
                c = certificate(g)
                if c not in seen:
                    seen.add(c)
                    yield g
        return
    yield from connected_graphs(n)
