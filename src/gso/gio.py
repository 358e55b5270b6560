"""Interchange formats: graph6 for plain graphs, JSON lines for rooted ones."""

from __future__ import annotations

import json
from typing import Iterable, TextIO

from .graphs import Graph, RootedGraph


class Graph6Error(ValueError):
    def __init__(self, msg: str, offset: int):
        super().__init__(f"{msg} (offset {offset})")
        self.offset = offset


def graph6_encode(g: Graph) -> str:
    n = g.n
    if n > 62:
        if n > 258047:
            raise ValueError("graph too large for this encoder")
        head = [126, 63 + (n >> 12 & 63), 63 + (n >> 6 & 63), 63 + (n & 63)]
    else:
        head = [63 + n]
    bits = []
    for v in range(1, n):
        for u in range(v):
            bits.append(1 if g.has_edge(u, v) else 0)
    while len(bits) % 6:
        bits.append(0)
    body = []
    for i in range(0, len(bits), 6):
        x = 0
        for b in bits[i : i + 6]:
            x = x << 1 | b
        body.append(63 + x)
    return "".join(chr(c) for c in head + body)


def graph6_decode(s: str) -> Graph:
    s = s.strip()
    if s.startswith(">>graph6<<"):
        s = s[10:]
    for i, ch in enumerate(s):
        if not 63 <= ord(ch) <= 126:
            raise Graph6Error(f"invalid graph6 character {ch!r}", i)
    if not s:
        raise Graph6Error("empty graph6 string", 0)
    pos = 0
    if ord(s[0]) == 126:
        if len(s) >= 2 and ord(s[1]) == 126:
            raise Graph6Error("graph too large for this decoder", 0)
        if len(s) < 4:
            raise Graph6Error("truncated size header", len(s))
        n = 0
        for ch in s[1:4]:
            n = n << 6 | (ord(ch) - 63)
        pos = 4
    else:
        n = ord(s[0]) - 63
        pos = 1
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(s) - pos != need:
        raise Graph6Error(
            f"expected {need} body characters for n={n}, got {len(s) - pos}", pos
        )
    bits = []
    for ch in s[pos:]:
        x = ord(ch) - 63
        bits.extend((x >> k) & 1 for k in range(5, -1, -1))
    if any(bits[nbits:]):
        raise Graph6Error("nonzero padding bits", len(s) - 1)
    edges = []
    i = 0
    for v in range(1, n):
        for u in range(v):
            if bits[i]:
                edges.append((u, v))
            i += 1
    return Graph.from_edges(n, edges)


def write_graph6_lines(graphs: Iterable[Graph], fh: TextIO) -> None:
    for g in graphs:
        fh.write(graph6_encode(g) + "\n")


def rooted_to_json(rg: RootedGraph, name: str | None = None) -> str:
    obj = {
        "g6": graph6_encode(rg.graph),
        "s_in": sorted(rg.s_in),
        "s_out": sorted(rg.s_out),
    }
    if name is not None:
        obj["name"] = name
    return json.dumps(obj, sort_keys=True)


def rooted_from_json(line: str) -> RootedGraph:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad rooted-graph record: {exc}") from exc
    if not isinstance(obj, dict) or not isinstance(obj.get("g6"), str):
        raise ValueError("bad rooted-graph record: expected an object with a string g6")
    g = graph6_decode(obj["g6"])
    roots = []
    for key in ("s_in", "s_out"):
        vs = obj.get(key, [])
        # bool is an int subclass, but true/false name no vertex
        if not isinstance(vs, list) or any(type(v) is not int for v in vs):
            raise ValueError(f"bad rooted-graph record: {key} must be a list of vertices")
        roots.append(frozenset(vs))
    # RootedGraph rejects vertices outside range(n)
    return RootedGraph(g, *roots)


def read_graphs(fh: TextIO) -> list[RootedGraph]:
    """One `RootedGraph` per nonblank line of fh: a rooted JSON record
    when the line holds a '"', otherwise graph6 with no roots.  graph6
    uses only '?'..'~' (where '{' opens every 60-vertex graph), while a
    JSON record always holds a '"'.  Raises ValueError for a malformed
    line or a disconnected graph, its message prefixed with `FILE:LINE:`
    (FILE is `fh.name`, or `<input>` for a handle without one)."""
    out = []
    for lineno, line in enumerate(fh, 1):
        line = line.strip()
        try:
            if '"' in line:
                out.append(rooted_from_json(line))
            elif line:
                out.append(RootedGraph(graph6_decode(line)))
        except ValueError as exc:
            where = getattr(fh, "name", "<input>")
            raise ValueError(f"{where}:{lineno}: {exc}") from exc
    return out
