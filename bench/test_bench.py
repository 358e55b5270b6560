"""The benchmark's own checks: traced counts repeat and reach the layers they should.

    python3 -m pytest -q bench/test_bench.py

Runs each workload traced twice with the same seed (about three minutes
on a 2-core box, most of it `verify`).  Not part of the repo's tier-1
suite, whose test path is `tests/`.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import FUNCTIONS, LAYERS  # noqa: E402

SEED = 0

# workload -> wrapped functions it must call
REACHES = {
    "mine": {
        "canon:certificate",
        "canon:canonical_graph",
        "gen:connected_graphs",
        "solvers.expansion:cmp_value",
        "contractions:is_contraction",
        "contractions:contains_any",
        "obstructions:is_obstruction",
        "obstructions:mine_obstructions",
        "gio:graph6_encode",
        "cli:main",
        "cli:cmd_mine",
    },
    "verify": {f"{layer}:{name}" for layer, _, name in FUNCTIONS}
    - {"gio:graph6_encode", "cli:cmd_mine"},
}
# workload -> layers it must not call at all
UNREACHED = {"mine": ("solvers.game",)}


def _is_count(name: str) -> bool:
    """Counts and ratios of counts; times and the overhead ratio vary."""
    return name != "trace.overhead_ratio" and not name.endswith("_s")


@pytest.fixture(scope="module")
def traced_pairs():
    out = {}
    for workload in run.WORKLOADS:
        out[workload] = [run.traced(workload, SEED, time.monotonic()) for _ in range(2)]
    return out


def test_every_wrapped_function_is_reached_somewhere():
    wrapped = {f"{layer}:{name}" for layer, _, name in FUNCTIONS}
    assert set().union(*REACHES.values()) == wrapped


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat(traced_pairs, workload):
    (m1, [r1]), (m2, [r2]) = traced_pairs[workload]
    counts = {k: v for k, v in m1.items() if _is_count(k)}
    assert counts == {k: m2[k] for k in counts}
    assert r1["function_calls"] == r2["function_calls"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_is_correct_and_complete(traced_pairs, workload):
    metrics, [rep] = traced_pairs[workload][0]
    assert rep["failed"] == 0, rep["errors"]
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} <= set(metrics)
    for layer in LAYERS:
        assert f"{layer}.self_s" in metrics
    assert metrics["trace.overhead_ratio"] >= 1.0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_layers_reached_as_predicted(traced_pairs, workload):
    metrics, [rep] = traced_pairs[workload][0]
    calls = rep["function_calls"]
    missing = sorted(f for f in REACHES[workload] if calls[f] == 0)
    assert not missing, f"{workload} never calls {missing}"
    for layer in UNREACHED.get(workload, ()):
        assert metrics[f"{layer}.calls"] == 0
        assert metrics[f"{layer}.self_s"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mine", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
