"""Randomized property suites, seeded and derandomized.

Each suite draws a fresh PRNG seed per example and checks one inequality
or equivalence on random small instances; the generators mirror the ones
used by the verification checklist.  Check 9 runs the same suites with a
memo of their solver answers, which must not change a verdict.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from gso import paperchecks
from gso.paperchecks import (
    PROPERTY_SUITES,
    _prop_closure,
    _prop_cms_le_cmms,
    _prop_contraction_mono,
    _prop_glue,
    _prop_mp_le_cmp,
    _prop_shrink,
)

SUITE = settings(max_examples=500, deadline=None, derandomize=True)
seeds = st.integers(min_value=0, max_value=2**64 - 1)


@SUITE
@given(seeds)
def test_glue_inequality(seed):
    # gluing rooted parts at matching roots never exceeds the worst part
    assert _prop_glue(random.Random(seed))


@SUITE
@given(seeds)
def test_root_shrinking(seed):
    # dropping the roots can only make the search easier
    assert _prop_shrink(random.Random(seed))


@SUITE
@given(seeds)
def test_contraction_monotonicity(seed):
    # contracting edges never raises the rooted or connected numbers
    assert _prop_contraction_mono(random.Random(seed))


@SUITE
@given(seeds)
def test_mp_at_most_cmp(seed):
    # the connectedness requirement can only cost searchers
    assert _prop_mp_le_cmp(random.Random(seed))


@SUITE
@given(seeds)
def test_cms_at_most_cmms(seed):
    # the monotonicity requirement can only cost searchers
    assert _prop_cms_le_cmms(random.Random(seed))


@SUITE
@given(seeds)
def test_closure_is_a_fixpoint(seed):
    # fast bitmask recontamination equals the brute-force fixpoint
    assert _prop_closure(random.Random(seed))


SOLVERS = ("cmp_value", "cms_value", "cmms_value", "cmp_decide", "cms_decide", "mp_decide")


@pytest.mark.parametrize("seed", [0, 1])
def test_memo_keeps_every_verdict_and_solves_each_instance_once(monkeypatch, seed):
    # check 9's cases: each suite run from one seed, without and with a memo
    calls = Counter()
    for name in SOLVERS:

        def spy(inst, *k, _real=getattr(paperchecks, name), _name=name):
            calls[_name, inst, k] += 1  # graphs and rooted graphs compare by value
            return _real(inst, *k)

        monkeypatch.setattr(paperchecks, name, spy)
    repeated = 0
    for suite, prop in PROPERTY_SUITES.items():
        calls.clear()
        rng = random.Random(seed)
        plain = [prop(rng) for _ in range(500)]
        repeated += sum(calls.values()) - len(calls)
        distinct = set(calls)
        calls.clear()
        rng = random.Random(seed)
        memo: dict = {}
        assert [prop(rng, memo) for _ in range(500)] == plain, suite
        # one call for each distinct instance the plain run solved
        assert set(calls) == distinct, suite
        assert all(n == 1 for n in calls.values()), suite
        # the memo holds plain answers under int keys, no graph
        for table in memo.values():
            assert all(type(key) is int for key in table)
            assert all(type(got) in (int, bool) for got in table.values())
    assert repeated > 4_000
