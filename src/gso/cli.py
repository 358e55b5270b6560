"""Command line surface.

Subcommands: solve, mine, verify-paper, branches, glue.  Reports go to
stdout as JSON; graph artifacts go to --out.  Exit codes: 0 success,
1 failed verification, 2 input/parse error or unreadable/unwritable
file, 3 budget exhaustion.  `main` is the one error boundary: a
ValueError or OSError out of any subcommand exits 2 and a BudgetExceeded
exits 3, each with one `error:` line on stderr.  Numeric options
(`--budget`, `--max-n`, `-k`) and the pairing of `solve`'s
`--emit-witness` with `--out` are checked, and inputs are read, before
any long computation starts.  Every graph file (`solve`'s input,
`--families`, `--corpus`, `--base`, `--family`) goes through
`gio.read_graphs`, so a malformed line or a disconnected graph exits 2
before any work.
`mine` and `branches` open `--out` before computing; `solve` and `glue`
write theirs after.

Run it from a checkout without installing:
    PYTHONPATH=src python -m gso.cli verify-paper --quick
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from dataclasses import asdict
from math import log10

from . import __version__
from .expansions import expansion_to_strategy
from .gio import graph6_encode, read_graphs, write_graph6_lines
from .graphs import RootedGraph, enhance
from .obstructions import (
    ABOVE,
    branch_count,
    branch_count_lower_bound_holds,
    branch_set,
    glue_family_at_root,
    mine_branch_base,
    mine_obstructions,
    obr_count,
    obr_count_lower_bound_holds,
    obr_set,
)
from .paperchecks import load_families, run_all
from .simulate import Move
from .solvers import BudgetExceeded, cmms_value, cmp_value, cms_value, mp_value, ms_value


def _moves_jsonl(moves: list[Move]) -> list[str]:
    lines = []
    for mv in moves:
        obj = {"op": mv.kind, "v": mv.v}
        if mv.u is not None:
            obj["u"] = mv.u
        lines.append(json.dumps(obj, sort_keys=True))
    return lines


def _witness_path(out: str, index: int, many: bool) -> str:
    if not many:
        return out
    root, ext = os.path.splitext(out)
    return f"{root}.{index}{ext or '.jsonl'}"


_VALUE = {
    "ms": ms_value,
    "cms": cms_value,
    "cmms": cmms_value,
    "cmp": cmp_value,
    "mp": mp_value,
}


def _solve_one(
    rg: RootedGraph, param: str, k: int | None, budget: int | None, wit: bool, stats: bool
):
    expansion = param in ("cmp", "mp")
    if not expansion and (rg.s_in or rg.s_out):
        raise ValueError(f"param {param} takes plain graphs, not rooted ones")
    res = _VALUE[param](rg if expansion else rg.graph, witness=wit, budget=budget)
    value, moves = res.value, res.witness
    if expansion and moves is not None:
        moves = expansion_to_strategy(enhance(rg), moves)
    entry = {"g6": graph6_encode(rg.graph), "param": param, "value": value}
    if rg.s_in or rg.s_out:
        entry["s_in"] = sorted(rg.s_in)
        entry["s_out"] = sorted(rg.s_out)
    if k is not None:
        entry["decision"] = value <= k
    if stats:
        entry["stats"] = res.stats
    return entry, moves


def cmd_solve(args) -> int:
    if args.emit_witness != (args.out is not None):
        raise ValueError("--emit-witness and --out go together: give both or neither")
    if args.budget is not None and args.budget < 0:
        raise ValueError(f"--budget must be at least 0, got {args.budget}")
    if args.k is not None and args.k < 0:
        raise ValueError(f"-k must be at least 0, got {args.k}")
    with open(args.input) as fh:
        graphs = read_graphs(fh)
    results = [
        _solve_one(rg, args.param, args.k, args.budget, args.emit_witness, args.stats)
        for rg in graphs
    ]
    if args.out is not None:
        many = len(results) > 1
        for i, (_, moves) in enumerate(results):
            if moves is None:
                continue
            with open(_witness_path(args.out, i, many), "w") as fh:
                fh.writelines(line + "\n" for line in _moves_jsonl(moves))
    report = {
        "command": "solve",
        "version": __version__,
        "param": args.param,
        "k": args.k,
        "results": [entry for entry, _ in results],
    }
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0


def _open_out(path: str | None):
    """`--out`, opened before a long computation so that a bad path fails first."""
    return open(path, "w") if path else nullcontext()


def cmd_mine(args) -> int:
    if args.max_n < 1:
        raise ValueError(f"--max-n must be at least 1, got {args.max_n}")
    if args.k < 0:
        raise ValueError(f"level k must be at least 0, got {args.k}")
    stats: list[dict] | None = [] if args.stats else None
    with _open_out(args.out) as fh:
        mined = mine_obstructions(args.max_n, args.param, args.k, args.relation, stats)
        if fh is not None:
            write_graph6_lines(mined, fh)
    report = {
        "command": "mine",
        "version": __version__,
        "param": args.param,
        "k": args.k,
        "relation": args.relation,
        "completeness_bound": args.max_n,
        "count": len(mined),
        "graphs": [graph6_encode(g) for g in mined],
    }
    if stats is not None:
        report["stats"] = stats
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0


def cmd_verify_paper(args) -> int:
    families = None if args.families is None else load_families(args.families)
    corpus = None
    if args.corpus is not None:
        with open(args.corpus) as fh:
            corpus = [rg.graph for rg in read_graphs(fh)]
    stats: list[dict] | None = [] if args.stats else None
    checks = run_all(
        families=families, seed=args.seed, quick=args.quick, corpus=corpus, stats=stats
    )
    report = {
        "command": "verify-paper",
        "version": __version__,
        "seed": args.seed,
        "checks": [asdict(c) for c in checks],
        "ok": all(c.ok for c in checks),
    }
    if stats is not None:
        report["stats"] = stats
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0 if report["ok"] else 1


def _load_base(path: str | None):
    if path is None:
        return mine_branch_base(7)
    with open(path) as fh:
        return read_graphs(fh)


# obr_count(12) has 2,735 digits and obr_count(13) 5,469, past the
# 4,300 that CPython converts to a string by default
_MAX_BRANCH_LEVEL = 12


def _check_printable(k: int, size: int) -> None:
    """Refuse a level and base size whose `obr_count`, the largest count
    in the report, may have more digits than Python prints from an int
    (`sys.get_int_max_str_digits`, 0 or absent before Python 3.10.7 for
    no limit).  An int of b bits has at most int(b * log10(2)) + 1
    digits."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and int(obr_count(k, size).bit_length() * log10(2)) + 1 > limit:
        raise ValueError(
            f"branch level {k} with base size {size}: obr_count would pass "
            f"Python's {limit}-digit limit for printing an int"
        )


def cmd_branches(args) -> int:
    """Counts and bounds for the base that is built, or for `--base-size`
    members under `--count-only`."""
    if args.k < 1:
        raise ValueError(f"branch level k must be at least 1, got {args.k}")
    if args.k > _MAX_BRANCH_LEVEL:
        raise ValueError(
            f"branch level k must be at most {_MAX_BRANCH_LEVEL}, got {args.k}: "
            "the counts above it pass Python's 4300-digit limit for printing an int"
        )
    report = {"command": "branches", "version": __version__, "k": args.k}
    size = args.base_size
    if args.count_only:
        _check_printable(args.k, size)
    else:
        with _open_out(args.out) as fh:
            base = _load_base(args.base)
            size = len(base)
            _check_printable(args.k, size)
            report["materialized_branches"] = len(branch_set(args.k, base))
            obr = sorted(obr_set(args.k, base), key=graph6_encode)
            report["materialized_obr"] = len(obr)
            if fh is not None:
                write_graph6_lines(obr, fh)
    report.update(
        base_size=size,
        branch_count=branch_count(args.k, size),
        obr_count=obr_count(args.k, size),
        branch_bound_holds=branch_count_lower_bound_holds(args.k, size),
        obr_bound_holds=obr_count_lower_bound_holds(args.k, size),
    )
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0


def cmd_glue(args) -> int:
    with open(args.family) as fh:
        fam = read_graphs(fh)
    glued = sorted(glue_family_at_root(fam, args.m), key=graph6_encode)
    if args.out:
        with open(args.out, "w") as fh:
            write_graph6_lines(glued, fh)
    report = {
        "command": "glue",
        "version": __version__,
        "family_size": len(fam),
        "m": args.m,
        "count": len(glued),
    }
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gso", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="search numbers for graphs in a file")
    p.add_argument("input")
    p.add_argument("--param", choices=list(_VALUE), default="cmms")
    p.add_argument("-k", type=int, default=None)
    p.add_argument(
        "--budget", type=int, default=None, metavar="NODES",
        help="most states each level k may explore, in the order that runs "
        "(breadth-first with --emit-witness, last-in-first-out without); "
        "exit 3 when exceeded",
    )
    p.add_argument("--emit-witness", action="store_true")
    p.add_argument("--out", default=None, metavar="FILE")
    p.add_argument(
        "--stats", action="store_true",
        help="add a stats key to each result: states, states per level k, seconds "
        "(the last level's count depends on --emit-witness)",
    )
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("mine", help="mine minimal obstructions")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--param", choices=list(ABOVE), default="cmp")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--relation", choices=["contraction", "minor"], default="contraction")
    p.add_argument("--out", default=None, metavar="FILE")
    p.add_argument(
        "--stats", action="store_true",
        help="add a stats key: one record of split and candidate counts per size",
    )
    p.set_defaults(fn=cmd_mine)

    p = sub.add_parser("verify-paper", help="run the reproducibility checklist")
    p.add_argument("--families", default=None, metavar="DIR")
    p.add_argument(
        "--corpus", default=None, metavar="FILE",
        help="graph6 or rooted JSONL graphs the recognizer check also decides",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quick", action="store_true")
    p.add_argument(
        "--stats", action="store_true",
        help="add a stats key: the name and seconds of each check",
    )
    p.set_defaults(fn=cmd_verify_paper)

    p = sub.add_parser("branches", help="lower-bound branch families")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--base", default=None, metavar="FILE")
    p.add_argument(
        "--base-size", type=int, default=5,
        help="base members assumed by --count-only",
    )
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--out", default=None, metavar="FILE")
    p.set_defaults(fn=cmd_branches)

    p = sub.add_parser("glue", help="root-glue a rooted family")
    p.add_argument("--family", required=True, metavar="FILE")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--out", default=None, metavar="FILE")
    p.set_defaults(fn=cmd_glue)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
