"""The reproducibility checklist shared by the CLI and the test suite.

Each check returns a CheckResult; anything needing external data
reports itself as skipped instead of failing.  All randomized checks
take an explicit seed and draw from the standard library generator, so
reports are byte-identical across runs.
"""

from __future__ import annotations

import os
import random
import time
from collections import Counter
from dataclasses import dataclass

from .canon import certificate, is_isomorphic
from .expansions import (
    expansion_cost,
    expansion_to_strategy,
    strategy_to_expansion,
    validate_expansion,
)
from .gen import connected_graphs
from .gio import read_graphs
from .graphs import (
    Graph,
    Part,
    RootedGraph,
    complete_bipartite,
    complete_graph,
    contract_edge_rooted,
    cycle_graph,
    doubly_rooted,
    enhance,
    glue,
    star_graph,
    k23_plus,
)
from .obstructions import (
    ABOVE,
    _is_obstruction,
    branch_count,
    branch_count_lower_bound_holds,
    glue_family_at_root,
    is_obstruction,
    mine_branch_base,
    mine_fan_base,
    mine_obstructions,
    obr_count,
    verify_obr,
)
from .recognizer import decide_cmms_le_2
from .simulate import HostCtx, is_monotone, simulate, width
from .solvers import (
    SolveResult,
    cmms_decide,
    cmms_value,
    cmp_decide,
    cmp_plain,
    cmp_value,
    cms_decide,
    cms_value,
    mp_decide,
    rooted_game_value,
)


@dataclass
class CheckResult:
    name: str
    ok: bool
    skipped: bool = False
    detail: str = ""


def check_mined_k1() -> CheckResult:
    mined = mine_obstructions(6, "cmp", 1, "contraction")
    expected = [complete_graph(3), star_graph(3)]
    ok = len(mined) == 2 and all(
        any(is_isomorphic(g, e) for e in expected) for g in mined
    )
    return CheckResult(
        "1 mined k=1 obstruction set = {K_3, K_1,3}", ok, detail=f"{len(mined)} graphs"
    )


def check_o1() -> CheckResult:
    fails = []
    for name, g in (
        ("K_4", complete_graph(4)),
        ("K_2,3", complete_bipartite(2, 3)),
        ("K_2,3+", k23_plus()),
    ):
        if not is_obstruction(g, "cmp", 2, "contraction"):
            fails.append(f"{name}: not an obstruction")
        if cmp_plain(g) != 3:
            fails.append(f"{name}: value != 3")
    return CheckResult("2 O_1 members are (cmp,2) obstructions", not fails, detail="; ".join(fails))


def _random_rooted(rng: random.Random, g: Graph) -> RootedGraph:
    n = g.n
    for _ in range(50):
        size = rng.randint(0, min(3, n))
        s_in = frozenset(rng.sample(range(n), size))
        if g.is_connected(sum(1 << v for v in s_in)):
            break
    else:
        s_in = frozenset()
    s_out = frozenset(rng.sample(range(n), rng.randint(0, min(3, n))))
    return RootedGraph(g, s_in, s_out)


def check_game_equivalence(seed: int = 0) -> CheckResult:
    """100 random rooted graphs of each size n <= 6: cmp equals the rooted
    game value, and the witness converts to a strategy and back."""
    rng = random.Random(seed)
    bad = []
    for n in range(1, 7):
        pool = connected_graphs(n)
        for _ in range(100):
            rg = _random_rooted(rng, rng.choice(pool))
            res = cmp_value(rg, witness=True)
            game = rooted_game_value(rg)
            if res.value != game.value:
                bad.append(f"n={n}: cmp {res.value} vs game {game.value}")
                continue
            enh = enhance(rg)
            validate_expansion(res.witness, enh.e_in, enh.e_out)
            moves = expansion_to_strategy(enh, res.witness)
            t = simulate(enh.host, moves)
            if not is_monotone(t) or width(t) != res.value:
                bad.append(f"n={n}: strategy width {width(t)} vs cost {res.value}")
                continue
            back = strategy_to_expansion(t, enh.e_in, enh.e_out)
            if expansion_cost(back, enh) > width(t):
                bad.append(f"n={n}: roundtrip cost above width")
        if bad:
            break
    return CheckResult(
        "3 expansion cost = game value + witness roundtrip", not bad, detail="; ".join(bad[:3])
    )


def check_monotone_connected(n_max: int = 7) -> CheckResult:
    bad = 0
    for n in range(1, n_max + 1):
        for g in connected_graphs(n):
            ctx = HostCtx(g)  # both solves share its move tables
            if cms_decide(ctx, 2) != cmms_decide(ctx, 2):
                bad += 1
    return CheckResult(
        f"4 cms<=2 iff cmms<=2 on all connected graphs n<={n_max}", bad == 0,
        detail=f"{bad} disagreements",
    )


def check_counting() -> CheckResult:
    fails = []

    def cycles(count: int) -> list[RootedGraph]:
        return [doubly_rooted(cycle_graph(i + 3), 0) for i in range(count)]

    for size, m, want in ((5, 3, 35), (12, 2, 78), (6, 2, 21)):
        got = len(glue_family_at_root(cycles(size), m))
        if got != want:
            fails.append(f"glue {size}/{m}: {got} != {want}")
    for k, want in ((1, 5), (2, 15), (3, 120)):
        if branch_count(k) != want:
            fails.append(f"f({k}) != {want}")
    if obr_count(1) != 35:
        fails.append("obr count at level 1")
    for k in range(1, 7):
        if not branch_count_lower_bound_holds(k):
            fails.append(f"lower bound fails at k={k}")
    return CheckResult("5 glue/branch counting and lower bounds", not fails, detail="; ".join(fails))


def check_fan_base() -> CheckResult:
    base = mine_fan_base(7)
    return CheckResult(
        "6 exactly 5 minimal rooted non-fans at n<=7", len(base) == 5,
        detail=f"{len(base)} members, sizes {[rg.graph.n for rg in base]}",
    )


def check_obr() -> CheckResult:
    report = verify_obr(1, mine_branch_base(7))
    return CheckResult(
        "7 level-1 family: values, contractions, constrained solves",
        report["ok"],
        detail=f"{report['graphs']} graphs, {report['branches']} branches, "
        f"{len(report['violations'])} violations",
    )


def check_recognizer(n_max: int = 7, corpus: list[Graph] | None = None) -> CheckResult:
    """Check 8 on every connected graph with n <= n_max and on the
    connected graphs of `corpus`.  An answer whose method is "solver" is
    that same `cmp_decide` call, so only the other answers are re-solved."""
    graphs = [g for n in range(1, n_max + 1) for g in connected_graphs(n)]
    graphs += [g for g in corpus or () if g.is_connected()]
    bad = 0
    for g in graphs:
        ok, cert = decide_cmms_le_2(g)
        if cert["method"] != "solver" and ok != cmp_decide(RootedGraph(g), 2):
            bad += 1
    return CheckResult(
        f"8 recognizer agrees with solver on {len(graphs)} graphs", bad == 0,
        detail=f"{bad} disagreements",
    )


# --- property suites (criterion 9) ---------------------------------------


def _packed(g: Graph, *masks: int) -> int:
    """n, then g's rows and the vertex masks, n bits each, as one int.
    Its bit length grows with n, so for a fixed number of masks it names
    the instance."""
    code = g.n
    for x in (*g.adj, *masks):
        code = code << g.n | x
    return code


def _ask(memo: dict | None, fn, inst: Graph | RootedGraph, *k: int) -> int | bool:
    """fn(inst, *k) as a plain answer: the value of a `*_value` call, the
    decision of a `*_decide` call.  With a memo (one per suite), each
    distinct call is made once: the answer is kept in the table of (fn,
    *k) under one int packing the instance and its roots, so the memo
    holds no graph."""
    table = key = None
    if memo is not None:
        if isinstance(inst, RootedGraph):
            masks = [sum(1 << v for v in roots) for roots in (inst.s_in, inst.s_out)]
            key = _packed(inst.graph, *masks)
        else:
            key = _packed(inst)
        table = memo.setdefault((fn, *k), {})
        got = table.get(key)
        if got is not None:
            return got
    got = fn(inst, *k)
    if isinstance(got, SolveResult):
        got = got.value
    if table is not None:
        table[key] = got
    return got


def _random_connected(rng: random.Random, n_max: int = 5) -> Graph:
    n = rng.randint(1, n_max)
    return rng.choice(connected_graphs(n))


def _prop_glue(rng: random.Random, memo: dict | None = None) -> bool:
    k = rng.randint(2, 3)
    parts = []
    offset = 0
    prev_out = None
    for i in range(k):
        g = _random_connected(rng, 4)
        root_in = rng.randrange(g.n)
        root_out = rng.randrange(g.n)
        labels = []
        for v in range(g.n):
            if prev_out is not None and v == root_in:
                labels.append(prev_out)
            else:
                labels.append(offset)
                offset += 1
        s_in = frozenset() if (i == 0 and rng.random() < 0.3) else frozenset({root_in})
        s_out = frozenset() if (i == k - 1 and rng.random() < 0.3) else frozenset({root_out})
        parts.append(
            (Part.from_rooted(RootedGraph(g, s_in, s_out), labels), RootedGraph(g, s_in, s_out))
        )
        if not s_out:
            break
        prev_out = labels[root_out]
    try:
        glued, _ = glue([p for p, _ in parts])
    except ValueError:
        return True  # overlap precondition violated by the draw; vacuous
    bound = max(_ask(memo, cmp_value, rg) for _, rg in parts)
    return _ask(memo, cmp_decide, glued, bound)


def _prop_shrink(rng: random.Random, memo: dict | None = None) -> bool:
    rg = _random_rooted(rng, _random_connected(rng))
    return _ask(memo, cmp_decide, RootedGraph(rg.graph), _ask(memo, cmp_value, rg))


def _prop_contraction_mono(rng: random.Random, memo: dict | None = None) -> bool:
    rg = _random_rooted(rng, _random_connected(rng))
    before_cmp = _ask(memo, cmp_value, rg)
    before_cms = _ask(memo, cms_value, rg.graph)
    cur = rg
    for _ in range(rng.randint(1, 3)):
        if cur.graph.m == 0:
            break
        cur = contract_edge_rooted(cur, rng.choice(cur.graph.edges))
    if cur.graph.m == rg.graph.m:
        return True
    ok = True
    if cur.graph.is_connected(sum(1 << v for v in cur.s_in)):
        ok = _ask(memo, cmp_decide, cur, before_cmp)
    return ok and _ask(memo, cms_decide, cur.graph, before_cms)


def _prop_mp_le_cmp(rng: random.Random, memo: dict | None = None) -> bool:
    rg = _random_rooted(rng, _random_connected(rng))
    return _ask(memo, mp_decide, rg, _ask(memo, cmp_value, rg))


def _prop_cms_le_cmms(rng: random.Random, memo: dict | None = None) -> bool:
    g = _random_connected(rng)
    return _ask(memo, cms_decide, g, _ask(memo, cmms_value, g))


def _prop_closure(rng: random.Random, memo: dict | None = None) -> bool:
    # no solver call, so nothing to memoise
    g = _random_connected(rng, 6)
    ctx = HostCtx(g)
    q = rng.getrandbits(ctx.m) if ctx.m else 0
    guard = rng.getrandbits(g.n)
    got = ctx.closure(q, guard)
    # brute-force fixpoint: grow the contaminated vertex region
    dirty = [i for i in range(ctx.m) if not q >> i & 1]
    w = set()
    for i in dirty:
        for v in ctx.edges[i]:
            if not guard >> v & 1:
                w.add(v)
    changed = True
    while changed:
        changed = False
        for u, v in g.edges:
            for a, b in ((u, v), (v, u)):
                if a in w and not guard >> b & 1 and b not in w:
                    w.add(b)
                    changed = True
    lost = 0
    for i in range(ctx.m):
        if q >> i & 1 and set(ctx.edges[i]) & w:
            lost |= 1 << i
    return got == q & ~lost


PROPERTY_SUITES = {
    "glue inequality": _prop_glue,
    "root shrinking": _prop_shrink,
    "contraction monotonicity": _prop_contraction_mono,
    "mp <= cmp": _prop_mp_le_cmp,
    "cms <= cmms": _prop_cms_le_cmms,
    "closure fixpoint": _prop_closure,
}


def check_properties(seed: int = 0) -> CheckResult:
    cases = 500
    fails = []
    for name, prop in PROPERTY_SUITES.items():
        rng = random.Random(seed)
        memo: dict = {}  # this suite's answers, dropped with it (see `_ask`)
        bad = sum(1 for _ in range(cases) if not prop(rng, memo))
        if bad:
            fails.append(f"{name}: {bad}/{cases}")
    return CheckResult(
        f"9 six property suites, {cases} seeded cases each", not fails,
        detail="; ".join(fails),
    )


def load_families(families_dir: str) -> list[Graph]:
    """The graphs of every .g6/.graph6/.json/.jsonl file in `families_dir`,
    read by `gio.read_graphs`.

    Raises OSError for an unreadable directory or file and ValueError for
    a malformed record or a disconnected graph.
    """
    out: list[Graph] = []
    for name in sorted(os.listdir(families_dir)):
        if name.endswith((".g6", ".graph6", ".json", ".jsonl")):
            with open(os.path.join(families_dir, name)) as fh:
                out.extend(rg.graph for rg in read_graphs(fh))
    return out


def check_d1(members: list[Graph] | None) -> CheckResult:
    """Check 10 on the graphs from `load_families`; skipped without them.

    The family must hold 177 members in distinct isomorphism classes,
    each a minimal (cmp, 2) contraction obstruction.  No pairwise
    containment test is needed: if a is a proper contraction of b, then
    a is a contraction of some single-edge contraction b' of b.  The
    class cmp <= 2 is closed under contraction (the paper's premise,
    which the "contraction monotonicity" property suite checks), so
    cmp(b') >= cmp(a) > 2 and `is_obstruction(b)` is already False:
    every comparable pair is reported, as "not an obstruction".  The
    members share one table of contraction verdicts, keyed by
    certificate, so each class of contractions is decided once across
    the family.
    """
    if members is None:
        return CheckResult(
            "10 full 177-graph family verification", True, skipped=True,
            detail="skipped: external data required",
        )
    fails = []
    if len(members) != 177:
        fails.append(f"count {len(members)} != 177")
    classes = Counter(certificate(g) for g in members)
    dup = sum(1 for c in classes.values() if c > 1)
    if dup:
        fails.append(f"{dup} duplicate classes")
    verdicts: dict[bytes, bool] = {}
    for g in members:
        if not _is_obstruction(g, ABOVE["cmp"], 2, "contraction", verdicts):
            fails.append(f"not an obstruction: n={g.n} m={g.m}")
    return CheckResult(
        "10 full 177-graph family verification", not fails, detail="; ".join(fails[:5])
    )


def check_minor_k1() -> CheckResult:
    mined = mine_obstructions(6, "mp", 1, "minor")
    return CheckResult(
        "11 mined (mp,1,minor) obstruction set has 2 graphs", len(mined) == 2,
        detail=f"{len(mined)} graphs",
    )


def run_all(
    families: list[Graph] | None = None,
    seed: int = 0,
    corpus: list[Graph] | None = None,
    stats: list[dict] | None = None,
) -> list[CheckResult]:
    """The eleven checks in order.  With a `stats` list, one record per
    check is appended: its name and the seconds it took."""
    checks = [
        check_mined_k1,
        check_o1,
        lambda: check_game_equivalence(seed),
        check_monotone_connected,
        check_counting,
        check_fan_base,
        check_obr,
        lambda: check_recognizer(corpus=corpus),
        lambda: check_properties(seed),
        lambda: check_d1(families),
        check_minor_k1,
    ]
    out = []
    for check in checks:
        t0 = time.perf_counter()
        out.append(check())
        if stats is not None:
            stats.append({"check": out[-1].name, "seconds": time.perf_counter() - t0})
    return out
