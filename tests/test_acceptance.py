"""Acceptance gate: the full verification checklist, one line per check.

The checklist runs once per session in full (non-quick) mode; each test
prints its own pass/fail line and asserts the corresponding result.
Check 10 needs external family data and reports as skipped without it.
"""

import pytest

from gso.paperchecks import run_all

N_CHECKS = 11


@pytest.fixture(scope="session")
def checklist():
    return run_all(families=None, seed=0, quick=False)


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
