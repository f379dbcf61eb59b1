"""The lockstep differential must agree — and must be able to disagree.

``run_lockstep`` is the fleet model's honesty mechanism: a real
3-host :class:`~repro.cloud.Cloud` and a :class:`FleetModel` driven
through the same campaign, the same plane method called on both at
every step and every placement and cycle charge compared.  The first
test is the acceptance criterion CI enforces.  The rest prove the
comparator has teeth: a deliberately desynchronized pair, or a cycle
table off by one cycle in any term, must produce mismatches, so an
eternally-green differential cannot be vacuous.  No plane method
rotates a real guest, so rotation's charge is pinned against one real
host here instead.
"""

import pytest

from repro.core.migration import restore_guest, snapshot_guest
from repro.fleet.lockstep import GUEST_FRAMES, _Differential, run_lockstep
from repro.fleet.model import FleetModel
from repro.system import GuestOwner, System

#: plane method -> the table entry the model charges for it
STEP_KINDS = {"launch": "boot", "migrate": "migrate",
              "shutdown": "shutdown"}


def _two_size_differential():
    """A 2-host pair that boots, migrates and shuts down one guest of
    each size; returns the report and each guest's frames."""
    diff = _Differential(seed=0x7E59, hosts=2, frames=1024)
    sizes = dict(zip(("small", "large"), GUEST_FRAMES))
    for name, frames in sizes.items():
        diff.step("launch", name, frames, owner=GuestOwner(seed=frames))
    for method in ("migrate", "shutdown"):
        for name in sizes:
            diff.step(method, name)
    return diff.report, sizes


def _cycle_mismatches(report):
    """{(method, guest)} of the steps whose cycles disagreed."""
    steps = set()
    for mismatch in report.mismatches:
        what = mismatch.split(":")[0].split()
        if what[:2] == ["cycles", "of"]:
            steps.add((what[2], what[3]))
    return steps


def _nudged(kind, fixed, per_frame):
    table = dict(FleetModel.CYCLES)
    table[kind] = (table[kind][0] + fixed, table[kind][1] + per_frame)
    return table


def _model_rotation_cycles(frames):
    """What the model charges to rotate one guest of ``frames``."""
    model = FleetModel(hosts=1, host_frames=64)
    model.launch("g", frames)
    before = model.metrics["busy_cycles"]
    model.rotate_host_keys(0)
    return model.metrics["busy_cycles"] - before


@pytest.fixture(scope="module")
def real_rotation_cycles():
    """{frames: cycles} of a snapshot-based key rotation on one real
    host: ``snapshot_guest`` + ``destroy_domain`` + ``restore_guest``."""
    system = System.create(fidelius=True, frames=1024, seed=0x7E5A)
    cycles = {}
    for frames in GUEST_FRAMES:
        domain, _ctx = system.boot_protected_guest(
            "rot%d" % frames, GuestOwner(seed=frames), payload=b"ROTATE",
            guest_frames=frames)
        before = system.machine.cycles.total
        package = snapshot_guest(system.fidelius, domain)
        system.hypervisor.destroy_domain(domain)
        restore_guest(system.fidelius, package)
        cycles[frames] = system.machine.cycles.total - before
    return cycles


class TestAgreement:
    def test_model_and_cloud_stay_in_lockstep(self):
        report = run_lockstep()
        assert report.ok, "\n".join(report.mismatches)
        assert report.launches == 7          # 6 tenants + post-tamper
        assert report.migrations >= 8
        assert report.shutdowns == 2          # one guest of each size
        assert report.quarantines == 1
        # the tampered host ends up empty on both sides; the report's
        # closing inventory is the model's view
        assert sum(len(v) for v in report.inventory.values()) == 5

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
        diff.step("launch", "t0", GUEST_FRAMES[0], owner=GuestOwner(seed=1))
        # desync: the model gains a guest the cloud never launched
        diff.model.launch("ghost", GUEST_FRAMES[0])
        diff.step("launch", "t1", GUEST_FRAMES[0], owner=GuestOwner(seed=2))
        assert not diff.report.ok
        assert any("inventory" in m or "placement" in m
                   for m in diff.report.mismatches)

    def test_quarantine_divergence_is_caught(self):
        diff = _Differential(seed=0x7E58, hosts=2, frames=4096)
        diff.step("launch", "t0", GUEST_FRAMES[0], owner=GuestOwner(seed=1))
        diff.model.quarantine_host(1)    # model-only quarantine
        diff.check_inventories("desync")
        assert any("quarantine set" in m for m in diff.report.mismatches)


class TestCycleTable:
    def test_both_sizes_of_every_step_kind_agree(self):
        report, _sizes = _two_size_differential()
        assert report.ok, "\n".join(report.mismatches)

    @pytest.mark.parametrize("kind", sorted(STEP_KINDS.values()))
    @pytest.mark.parametrize("term", ["fixed", "per-frame"])
    def test_one_cycle_off_is_a_cycle_mismatch(self, monkeypatch, kind,
                                               term):
        nudge = (1, 0) if term == "fixed" else (0, 1)
        monkeypatch.setattr(FleetModel, "CYCLES", _nudged(kind, *nudge))
        report, _sizes = _two_size_differential()
        caught = {STEP_KINDS[method]
                  for method, _name in _cycle_mismatches(report)}
        assert caught == {kind}

    @pytest.mark.parametrize("agrees_at", GUEST_FRAMES)
    def test_one_size_cannot_separate_the_terms(self, monkeypatch,
                                                agrees_at):
        # every charge moved along the line through its value at
        # ``agrees_at`` frames: only the other size can catch it
        table = {kind: (fixed + agrees_at, per_frame - 1)
                 for kind, (fixed, per_frame) in FleetModel.CYCLES.items()}
        monkeypatch.setattr(FleetModel, "CYCLES", table)
        report, sizes = _two_size_differential()
        caught = {(method, sizes[name])
                  for method, name in _cycle_mismatches(report)}
        other = [f for f in GUEST_FRAMES if f != agrees_at]
        assert caught == {(method, frames) for method in STEP_KINDS
                          for frames in other}

    def test_campaign_pins_both_shutdown_terms(self, monkeypatch):
        # the shutdown charge moved along the line through its value at
        # 48 frames, the first victim's size at the default seed: only
        # the campaign's second shutdown, at 16 frames, can catch it
        fixed, per_frame = FleetModel.CYCLES["shutdown"]
        monkeypatch.setattr(FleetModel, "CYCLES", dict(
            FleetModel.CYCLES, shutdown=(fixed + 48, per_frame - 1)))
        report = run_lockstep()
        assert _cycle_mismatches(report) == {("shutdown", "ls-extra")}

    @pytest.mark.parametrize("frames", GUEST_FRAMES)
    def test_rotation_costs_the_table_charge(self, real_rotation_cycles,
                                             frames):
        assert _model_rotation_cycles(frames) == \
            real_rotation_cycles[frames]

    @pytest.mark.parametrize("term", ["fixed", "per-frame"])
    def test_one_cycle_off_rotation_is_caught(self, monkeypatch,
                                              real_rotation_cycles, term):
        nudge = (1, 0) if term == "fixed" else (0, 1)
        monkeypatch.setattr(FleetModel, "CYCLES",
                            _nudged("rotate", *nudge))
        assert all(_model_rotation_cycles(frames) != cycles
                   for frames, cycles in real_rotation_cycles.items())
