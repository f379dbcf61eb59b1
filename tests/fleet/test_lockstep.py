"""The lockstep differential must agree — and must be able to disagree.

``run_lockstep`` is the fleet model's honesty mechanism: a real
3-host :class:`~repro.cloud.Cloud` and a :class:`FleetModel` driven
through the same campaign, the same plane method called on both at
every step and every placement compared.  The first test is
the acceptance criterion CI enforces.  The second proves the comparator
has teeth: a deliberately desynchronized pair must produce mismatches,
so an eternally-green differential cannot be vacuous.
"""

from repro.fleet.lockstep import GUEST_FRAMES, _Differential, run_lockstep
from repro.system import GuestOwner


class TestAgreement:
    def test_model_and_cloud_stay_in_lockstep(self):
        report = run_lockstep()
        assert report.ok, "\n".join(report.mismatches)
        assert report.launches == 7          # 6 tenants + post-tamper
        assert report.migrations >= 8
        assert report.shutdowns == 1
        assert report.quarantines == 1
        # the tampered host ends up empty on both sides; the report's
        # closing inventory is the model's view
        assert sum(len(v) for v in report.inventory.values()) == 6

    def test_asdict_is_json_shaped(self):
        report = run_lockstep(tenants=3, churn=2)
        data = report.asdict()
        assert data["ok"] is True
        assert data["launches"] == report.launches
        assert data["mismatches"] == []
        assert set(data) == {"hosts", "seed", "launches", "migrations",
                             "shutdowns", "quarantines", "mismatches",
                             "ok"}


class TestComparatorHasTeeth:
    def test_desynchronized_pair_is_caught(self):
        diff = _Differential(seed=0x7E57, hosts=2, frames=4096)
        diff.step("launch", "t0", owner=GuestOwner(seed=1))
        # desync: the model gains a guest the cloud never launched
        diff.model.launch("ghost", GUEST_FRAMES)
        diff.step("launch", "t1", owner=GuestOwner(seed=2))
        assert not diff.report.ok
        assert any("inventory" in m or "placement" in m
                   for m in diff.report.mismatches)

    def test_quarantine_divergence_is_caught(self):
        diff = _Differential(seed=0x7E58, hosts=2, frames=4096)
        diff.step("launch", "t0", owner=GuestOwner(seed=1))
        diff.model.quarantine_host(1)    # model-only quarantine
        diff.check_inventories("desync")
        assert any("quarantine set" in m for m in diff.report.mismatches)
