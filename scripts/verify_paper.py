#!/usr/bin/env python3
"""Run the full verification checklist and print one line per check.

Example:
    python3 scripts/verify_paper.py --quick
    python3 scripts/verify_paper.py --families data/families
"""

import argparse
import sys
import time

from gso.paperchecks import load_families, run_all


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--families", default=None, metavar="DIR")
    ap.add_argument("--corpus", default=None, metavar="FILE")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args(argv)

    families = None
    if args.families is not None:
        try:
            families = load_families(args.families)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    t0 = time.perf_counter()
    checks = run_all(
        families=families,
        seed=args.seed,
        quick=args.quick,
        corpus=args.corpus,
    )
    for c in checks:
        status = "SKIP" if c.skipped else ("PASS" if c.ok else "FAIL")
        tail = f" -- {c.detail}" if c.detail else ""
        print(f"[{status}] {c.name}{tail}")
    failed = [c for c in checks if not c.ok and not c.skipped]
    print(
        f"{len(checks) - len(failed)}/{len(checks)} ok "
        f"in {time.perf_counter() - t0:.1f}s"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
