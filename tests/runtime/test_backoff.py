"""Tests for the shared retry/backoff policy (repro.runtime.backoff).

Every retry path in the runtime sleeps through this policy, so its
contract is load-bearing: delays must stay inside [base, cap], grow
from the base and be deterministic under a seeded rng.
"""

import random

import pytest

from repro.exceptions import SearchError
from repro.runtime import Backoff


class TestBackoff:
    def test_delays_stay_inside_bounds(self):
        policy = Backoff(base_s=0.01, cap_s=0.5, rng=random.Random(1))
        delays = [policy.next_delay() for _ in range(200)]
        assert all(0.01 <= d <= 0.5 for d in delays)
        # Decorrelated jitter must actually reach the cap on repeated
        # failure (growth), not hover at the base forever.
        assert max(delays) == 0.5

    def test_seeded_rng_is_deterministic(self):
        a = Backoff(base_s=0.02, cap_s=1.0, rng=random.Random(42))
        b = Backoff(base_s=0.02, cap_s=1.0, rng=random.Random(42))
        assert [a.next_delay() for _ in range(50)] == [
            b.next_delay() for _ in range(50)
        ]

    def test_reset_restarts_growth(self):
        policy = Backoff(base_s=0.01, cap_s=10.0, rng=random.Random(3))
        for _ in range(20):
            policy.next_delay()  # grow toward the cap
        grown = policy.next_delay()
        policy.reset()
        fresh = policy.next_delay()
        # The first post-reset draw is bounded by 3 * base again.
        assert fresh <= 3 * 0.01
        assert grown > fresh

    def test_invalid_parameters_rejected(self):
        with pytest.raises(SearchError, match="base_s"):
            Backoff(base_s=0.0)
        with pytest.raises(SearchError, match="cap_s"):
            Backoff(base_s=1.0, cap_s=0.5)

