"""The Section 6 security evaluation as a test suite.

Every attack is asserted both ways: it must *succeed* against the
SEV-only baseline when the paper says the surface exists (otherwise our
model is too strong, and blocking it under Fidelius would be vacuous),
and it must be blocked under Fidelius when the paper claims the defence.
"""

import pytest

from repro.attacks import ALL_ATTACKS
from repro.system import System


def _system(protected, seed):
    return System.create(fidelius=protected, frames=2048, seed=seed)


@pytest.mark.parametrize(
    "attack_fn", ALL_ATTACKS, ids=[a.attack_name for a in ALL_ATTACKS])
class TestAttackMatrix:
    def test_baseline_behaviour(self, attack_fn):
        result = attack_fn(_system(False, seed=11))
        assert result.succeeded == attack_fn.baseline_succeeds, \
            "baseline: %s (%s)" % (result.detail, result.blocked_by)

    def test_fidelius_behaviour(self, attack_fn):
        result = attack_fn(_system(True, seed=13))
        expected_blocked = attack_fn.fidelius_blocks
        assert result.blocked == expected_blocked, \
            "fidelius: %s (%s)" % (result.detail, result.blocked_by)


class TestAttackAuditTrail:
    """Blocked attacks leave an audit record (Section 5.3's 'log this
    operation for further auditing')."""

    def test_fault_blocked_attacks_audited(self):
        from repro.attacks.memory import cpu_ciphertext_replay
        system = _system(True, seed=17)
        result = cpu_ciphertext_replay(system)
        assert result.blocked
        assert "fault-blocked" in system.fidelius.audit_kinds()

    def test_policy_denials_audited(self):
        from repro.attacks.grants import grant_permission_widening
        system = _system(True, seed=19)
        result = grant_permission_widening(system)
        assert result.blocked
        kinds = system.fidelius.audit_kinds()
        assert "denied" in kinds or "fault-blocked" in kinds

    def test_iago_block_audited(self):
        from repro.attacks.state import iago_return_value
        system = _system(True, seed=23)
        result = iago_return_value(system)
        assert result.blocked
        assert "iago-blocked" in system.fidelius.audit_kinds()


class TestAttackRegistry:
    def test_names_unique(self):
        names = [fn.attack_name for fn in ALL_ATTACKS]
        assert len(names) == len(set(names))

    def test_registry_covers_all_attacks(self):
        from repro.attacks.base import attack
        assert {fn.attack_name for fn in ALL_ATTACKS} <= set(attack.registry)

    def test_every_attack_cites_the_paper(self):
        assert all("§" in fn.paper_ref or "Table" in fn.paper_ref
                   for fn in ALL_ATTACKS)

    def test_expected_count(self):
        assert len(ALL_ATTACKS) == 28

    def test_fidelius_leaves_open_only_what_the_paper_concedes(self):
        """Section 8 concedes DMA replay and Rowhammer to hardware;
        ``TestAttackMatrix`` ties these flags to observed behaviour."""
        open_under_fidelius = {fn.attack_name for fn in ALL_ATTACKS
                               if not fn.fidelius_blocks}
        assert open_under_fidelius == {"dma-ciphertext-replay",
                                       "rowhammer-bit-flip"}
