"""ChaosPlan semantics: determinism, banding, dispatch applicability.

The plan is pure bookkeeping -- no processes die here.  What matters
is that the same seed always schedules the same faults (the campaign's
reproducibility rests on it) and that destructive faults are confined
to a task's first dispatch, so every task eventually succeeds.
"""

from __future__ import annotations

import pytest

from repro.chaos import DEFAULT_RATES, RANDOM_KINDS, ChaosAction, ChaosPlan
from repro.parallel import TransientTaskError

pytestmark = pytest.mark.chaos_smoke

IDS = [f"task:{i}" for i in range(400)]


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        first = ChaosPlan.random(42)
        second = ChaosPlan.random(42)
        assert [first.kind_for(tid) for tid in IDS] == \
            [second.kind_for(tid) for tid in IDS]

    def test_different_seeds_differ(self):
        a = [ChaosPlan.random(1).kind_for(tid) for tid in IDS]
        b = [ChaosPlan.random(2).kind_for(tid) for tid in IDS]
        assert a != b

    def test_schedule_is_order_independent(self):
        # The fate of a task is a function of (seed, id) alone -- the
        # plan has no RNG state that query order could advance.
        plan = ChaosPlan.random(7)
        forward = {tid: plan.kind_for(tid) for tid in IDS}
        backward = {tid: plan.kind_for(tid) for tid in reversed(IDS)}
        assert forward == backward

    def test_rates_land_in_the_right_ballpark(self):
        plan = ChaosPlan.random(3)
        kinds = [plan.kind_for(tid) for tid in IDS]
        hit = sum(1 for k in kinds if k is not None)
        expected = sum(DEFAULT_RATES.values()) * len(IDS)
        # sha256 banding over 400 ids: allow generous sampling noise.
        assert 0.5 * expected <= hit <= 1.5 * expected
        assert {k for k in kinds if k is not None} <= set(RANDOM_KINDS)


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos kinds"):
            ChaosPlan.random(0, rates={"meteor": 0.5})

    def test_rates_over_one_rejected(self):
        with pytest.raises(ValueError, match="> 1"):
            ChaosPlan.random(0, rates={"kill": 0.9, "hang": 0.9})

    def test_flaky_failures_clamped_below_retry_budget(self):
        # A seeded plan must never schedule more consecutive transient
        # failures than the pool will retry -- otherwise a flaky task
        # degrades and the bit-identity invariant gets noisy.
        plan = ChaosPlan.random(0, flaky_failures=99)
        assert plan.flaky_failures < 3


class TestDispatchApplicability:
    def test_destructive_kinds_fire_only_on_first_dispatch(self):
        for kind in ("kill", "hang", "slow", "cache-corrupt",
                     "kill-after-run"):
            plan = ChaosPlan.explicit({"t": ChaosAction(kind)})
            assert plan.action("t", 1) is not None
            assert plan.action("t", 2) is None

    def test_flaky_fires_for_its_attempt_budget(self):
        plan = ChaosPlan.explicit({"t": ChaosAction("flaky", attempts=2)})
        assert plan.action("t", 1) is not None
        assert plan.action("t", 2) is not None
        assert plan.action("t", 3) is None

    def test_unlisted_tasks_are_untouched(self):
        plan = ChaosPlan.explicit({"t": ChaosAction("kill")})
        assert plan.action("other", 1) is None

    def test_flaky_raises_transient_error(self):
        with pytest.raises(TransientTaskError, match="chaos"):
            ChaosAction("flaky").apply_before()


class TestDescribe:
    def test_random_plan_provenance(self):
        block = ChaosPlan.random(9, slow_seconds=0.01).describe()
        assert block["mode"] == "random"
        assert block["seed"] == 9
        assert block["slow_seconds"] == 0.01
        assert set(block["rates"]) == set(RANDOM_KINDS)

    def test_explicit_plan_provenance(self):
        block = ChaosPlan.explicit(
            {"a": ChaosAction("kill"), "b": ChaosAction("hang")}).describe()
        assert block == {"mode": "explicit",
                         "tasks": {"a": "kill", "b": "hang"}}
