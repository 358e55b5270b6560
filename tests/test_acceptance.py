"""Acceptance gate: the full verification checklist, one line per check.

The checklist runs once per session; each test prints its own pass/fail
line and asserts the corresponding result.
Check 10 needs external family data and reports as skipped without it.
"""

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from gso.paperchecks import run_all

N_CHECKS = 11


@pytest.fixture(scope="session")
def timed_checklist():
    stats = []
    return run_all(families=None, seed=0, stats=stats), stats


@pytest.fixture(scope="session")
def checklist(timed_checklist):
    return timed_checklist[0]


@pytest.mark.parametrize("index", range(N_CHECKS))
def test_acceptance(checklist, index):
    c = checklist[index]
    status = "SKIP" if c.skipped else ("PASS" if c.ok else "FAIL")
    print(f"\n[{status}] check {c.name} -- {c.detail}")
    if c.skipped:
        pytest.skip(c.detail or "external data not provided")
    assert c.ok, f"check failed: {c.name} ({c.detail})"


def test_checklist_is_complete(checklist):
    assert len(checklist) == N_CHECKS


def test_checklist_matches_bench_reference(checklist):
    # the checks of the bench's byte-identity gate for `verify-paper
    # --seed 0`, read only
    ref = Path(__file__).resolve().parents[1] / "bench" / "reference" / "verify-seed0.json"
    assert [asdict(c) for c in checklist] == json.loads(ref.read_text())["checks"]


def test_run_all_times_each_check(timed_checklist):
    checks, stats = timed_checklist
    assert [r["check"] for r in stats] == [c.name for c in checks]
    assert all(r["seconds"] >= 0 for r in stats)
