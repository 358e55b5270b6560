"""One repetition of a benchmark workload, in a fresh process.

    python3 bench/child.py WORKLOAD SEED SPAWN MODE

SPAWN is the parent's `time.monotonic()` just before it started this
process; set-up time runs from there to the first timed call.  MODE is
`setup` (stop there), `time` (the timed phase, sampled by
`speed.SpeedProbe`, and the reference check) or `trace` (the same with
the timed phase traced instead of sampled).  The result is one
JSON object on the last line of stdout.  Each repetition needs its own
process because `gen._cache` and the `paperchecks` base caches are
module-level: a warm repetition measures a different program.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from gso import cli  # noqa: E402
from speed import SpeedProbe  # noqa: E402

REFERENCE = HERE / "reference"
SPAN_DIR = HERE.parent / ".bench_out"


def command(workload: str, seed: int) -> list[str]:
    if workload == "mine":
        return ["mine", "--param", "cmp", "-k", "2", "--max-n", "7"]
    return ["verify-paper", "--seed", str(seed)]


def expected_output(workload: str, seed: int) -> str:
    if workload == "mine":
        return (REFERENCE / "mine.json").read_text()
    report = json.loads((REFERENCE / "verify-seed0.json").read_text())
    report["seed"] = seed
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def run_command(argv: list[str]) -> tuple[int | None, str, list[str]]:
    """Exit code, stdout and errors of `gso ARGV`, run in this process."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception as exc:  # a command that raises counts as failed
        return None, "", [f"{argv[0]}: {exc!r}"]
    return code, buf.getvalue(), []


def main(argv: list[str]) -> None:
    workload, seed, spawn, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    args = command(workload, seed)
    tracer = None
    if mode == "trace":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    ready = time.monotonic()
    out: dict = {"setup_s": ready - spawn}
    if mode == "setup":
        print(json.dumps(out))
        return
    probe = SpeedProbe() if tracer is None else None
    if probe is not None:
        probe.start()
    t0 = time.perf_counter()
    code, text, errors = run_command(args)
    out["wall_s"] = time.perf_counter() - t0
    if probe is not None:
        probe.stop()
        out["probe_s"] = probe.busy_s
        out["speed_factor"] = probe.factor
        out["wall_ref_s"] = (out["wall_s"] - probe.busy_s) * probe.factor
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.layer_metrics()
        out["function_calls"] = tracer.function_calls()
        out["tracer_s"] = tracer.overhead_s
        out["spans"] = len(tracer.spans)
        SPAN_DIR.mkdir(exist_ok=True)
        out["span_file"] = str(SPAN_DIR / f"spans-{workload}-seed{seed}.jsonl")
        tracer.write(out["span_file"])
    if code is not None and code != 0:
        errors.append(f"exit code {code}")
    if code is not None and text != expected_output(workload, seed):
        errors.append("output differs from the reference")
    out.update(errors=errors, attempted=1, failed=int(bool(errors)))
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
