"""Tests for the file-armed fault plans that agents claim.

A plan lives as ``faults/plan.json`` plus one ``token-<i>`` file per
permitted firing under a directory every agent reads; an agent fires
only after claiming a token by atomic rename.  These tests pin that
contract without any agent: what can be armed, how often a plan fires,
what a non-matching chunk leaves behind, and that disarmed, re-armed
or torn plans never fire spuriously.
"""

import os

import pytest

from repro.exceptions import SearchError
from repro.runtime import faults
from repro.runtime.faults import FaultPlan


def _tokens(root):
    names = os.listdir(os.path.join(root, "faults"))
    live = sorted(n for n in names if n.startswith("token-") and ".fired" not in n)
    fired = sorted(n for n in names if ".fired" in n)
    return live, fired


class TestArming:
    @pytest.mark.parametrize("kind", faults._KINDS)
    def test_every_kind_is_file_armed(self, tmp_path, kind):
        faults.arm_file_fault(tmp_path, FaultPlan(kind=kind, candidate=0))
        assert faults.claim_file_fault(tmp_path, {0}).kind == kind

    def test_unknown_kind_is_refused(self):
        with pytest.raises(SearchError, match="unknown fault kind"):
            FaultPlan(kind="meteor", candidate=0)

    def test_plan_must_target_a_candidate(self, tmp_path):
        with pytest.raises(SearchError, match="candidate"):
            faults.arm_file_fault(tmp_path, FaultPlan(kind=faults.CONN_DROP))

    def test_arm_writes_one_token_per_firing(self, tmp_path):
        faults.arm_file_fault(
            tmp_path, FaultPlan(kind=faults.SLOW_FRAME, candidate=2, times=3)
        )
        assert _tokens(tmp_path) == (["token-0", "token-1", "token-2"], [])
        assert (tmp_path / "faults" / "plan.json").exists()


class TestClaiming:
    def test_tokens_bound_the_firings(self, tmp_path):
        plan = FaultPlan(kind=faults.PARTITION, candidate=3, delay_s=1.5, times=2)
        faults.arm_file_fault(tmp_path, plan)
        assert faults.claim_file_fault(tmp_path, {3}) == plan
        assert faults.claim_file_fault(tmp_path, (1, 3)) == plan
        assert faults.claim_file_fault(tmp_path, {3}) is None
        live, fired = _tokens(tmp_path)
        assert live == [] and len(fired) == 2

    def test_non_matching_chunk_keeps_the_token(self, tmp_path):
        faults.arm_file_fault(
            tmp_path, FaultPlan(kind=faults.HOST_KILL, candidate=3)
        )
        assert faults.claim_file_fault(tmp_path, {0, 1, 2}) is None
        assert _tokens(tmp_path) == (["token-0"], [])
        assert faults.claim_file_fault(tmp_path, {3}).kind == faults.HOST_KILL

    def test_unarmed_directory_never_fires(self, tmp_path):
        assert faults.claim_file_fault(tmp_path, {0}) is None
        assert faults.claim_file_fault(tmp_path / "missing", {0}) is None

    def test_torn_plan_never_fires(self, tmp_path):
        faults.arm_file_fault(
            tmp_path, FaultPlan(kind=faults.CONN_DROP, candidate=1)
        )
        (tmp_path / "faults" / "plan.json").write_text('{"kind": "conn-')
        assert faults.claim_file_fault(tmp_path, {1}) is None
        assert _tokens(tmp_path) == (["token-0"], [])


class TestClearing:
    def test_clear_disarms_and_is_idempotent(self, tmp_path):
        faults.arm_file_fault(
            tmp_path, FaultPlan(kind=faults.CONN_DROP, candidate=1, times=2)
        )
        faults.clear_file_fault(tmp_path)
        faults.clear_file_fault(tmp_path)
        assert os.listdir(tmp_path / "faults") == []
        assert faults.claim_file_fault(tmp_path, {1}) is None
        # Never armed at all: still a no-op.
        faults.clear_file_fault(tmp_path / "missing")

    def test_rearming_replaces_the_plan_and_its_tokens(self, tmp_path):
        faults.arm_file_fault(
            tmp_path, FaultPlan(kind=faults.CONN_DROP, candidate=1, times=3)
        )
        faults.arm_file_fault(
            tmp_path, FaultPlan(kind=faults.SLOW_FRAME, candidate=2)
        )
        assert faults.claim_file_fault(tmp_path, {1}) is None
        assert faults.claim_file_fault(tmp_path, {2}).kind == faults.SLOW_FRAME
        assert faults.claim_file_fault(tmp_path, {2}) is None
