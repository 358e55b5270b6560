"""The gso benchmark: one command, two workloads.

    python3 bench/run.py --workload mine|verify --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every repetition of a workload runs in
a fresh child process (bench/child.py), and only one child runs at a
time.  With --trace 0 a run repeats the workload until the timed phases
add up to --seconds (at least once), starts set-up-only children before
and after, and reports the end-to-end metrics, with the timed phase at
reference CPU speed (bench/speed.py).  With --trace 1 it runs one traced
repetition and reports the per-layer metrics.  Every output is checked
against bench/reference.

The metric names and units come from BENCHMARK.json.  A readable table,
the machine record and, with --trace 1, the path of the span file are
printed first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mine", "verify")
# set-up-only children per run, half before and half after the repetitions
SETUP_PROBES = 20
# stop starting repetitions when one more would end past this point
RUN_LIMIT_S = 170.0


def machine_record() -> dict:
    cpu = ""
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    with open("/proc/loadavg") as fh:
        load = [float(x) for x in fh.read().split()[:3]]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
        "loadavg": load,
    }


def run_child(workload: str, seed: int, mode: str, deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("GSO_THREADS", None)  # one worker thread, the library default
    spawn = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), repr(spawn), mode]
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"bench: {workload} repetition did not finish in time")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        sys.exit(f"bench: {workload} child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(workload: str, seed: int, seconds: float, start: float) -> tuple[dict, list]:
    deadline = start + RUN_LIMIT_S

    def probes() -> list[float]:
        return [
            run_child(workload, seed, "setup", deadline)["setup_s"]
            for _ in range(SETUP_PROBES // 2)
        ]

    setups = probes()
    reps: list[dict] = []
    while not reps or sum(r["wall_s"] for r in reps) < seconds:
        t0 = time.monotonic()
        reps.append(run_child(workload, seed, "time", deadline))
        t1 = time.monotonic()
        if t1 + (t1 - t0) > deadline:  # another repetition would not fit
            break
    setups += probes()
    metrics = {
        "wall_ref_s": statistics.median(r["wall_ref_s"] for r in reps),
        "setup_s": statistics.median(setups + [r["setup_s"] for r in reps]),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
    }
    return metrics, reps


def traced(workload: str, seed: int, start: float) -> tuple[dict, list]:
    rep = run_child(workload, seed, "trace", start + RUN_LIMIT_S)
    metrics = dict(rep["layers"])
    # untraced time = traced time minus the time spent in the tracer itself
    metrics["trace.overhead_ratio"] = rep["wall_s"] / (rep["wall_s"] - rep["tracer_s"])
    return metrics, [rep]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "gso" / "__init__.py").is_file():
        print(f"bench: no gso sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    start = time.monotonic()
    record = machine_record()
    if args.trace:
        values, reps = traced(args.workload, args.seed, start)
        detail = f"1 traced repetition, {reps[0]['spans']} spans in {reps[0]['span_file']}"
    else:
        values, reps = end_to_end(args.workload, args.seed, args.seconds, start)
        detail = f"{len(reps)} repetition(s), {SETUP_PROBES} set-up probes"
    record["loadavg_end"] = machine_record()["loadavg"]

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  ({detail})")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:<34} {values[m['name']]:>16.6g} {m['unit']}")
    print(f"  {'failed_share':<34} {failed / attempted:>16.6g} ({failed} of {attempted})")
    if not args.trace:
        for r in reps:
            print(f"  repetition: wall_s {r['wall_s']:.4f}, speed factor "
                  f"{r['speed_factor']:.4f}, wall_ref_s {r['wall_ref_s']:.4f}")
    for r in reps:
        for err in r["errors"][:10]:
            print(f"  error: {err}")
    print("machine " + json.dumps(record, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
