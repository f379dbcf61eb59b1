"""The soak's ``--fleet-profile``: event-queue storms, resumable clocks.

Both soak profiles are virtual-clock
:class:`~repro.fleet.events.EventQueue` schedules popped by one
driver; the fleet profile fills the migration phase with a storm
(arrivals snapped to shared instants so the seeded tie-break resolves
real races) while keeping every fault-injection and confidentiality
check of the classic soak.  These tests pin the three contracts the
profile adds: seed determinism, byte-identical checkpoint/resume (the
pending queue *and* the virtual clock ride in the payload), and
fail-closed separation from classic-profile checkpoints.
"""

import pickle

import pytest

from repro.checkpoint.store import CheckpointError
from repro.faults.soak import (
    INSEED_KIND,
    results_digest,
    run_scenario,
    soak_report,
)

PARAMS = {"hosts": 2, "tenants": 2, "frames": 512, "nfaults": 3,
          "profile": "fleet", "migrations": 4}

#: ``python -m repro.faults.soak --seeds 8 --fleet-profile`` digest
FLEET_DIGEST = ("205763a1085504c2315ad2b2667a849e"
                "048e5424baa33354dc6037645859501d")


class TestDeterminism:
    def test_same_seed_is_byte_identical(self):
        first = run_scenario(5, **PARAMS)
        second = run_scenario(5, **PARAMS)
        assert pickle.dumps(first) == pickle.dumps(second)

    def test_virtual_clock_enters_the_result(self):
        result = run_scenario(5, **PARAMS)
        clock_marks = [op for op in result.completed_ops
                       if op.startswith("fleet-clock:")]
        assert len(clock_marks) == 1
        assert int(clock_marks[0].split(":")[1]) > 0

    def test_fleet_profile_differs_from_classic(self):
        classic = run_scenario(5, hosts=2, tenants=2, frames=512,
                               nfaults=3)
        fleet = run_scenario(5, **PARAMS)
        assert classic.completed_ops != fleet.completed_ops

    def test_sharded_sweep_digest_matches_serial(self):
        serial = soak_report(seeds=(1, 2), jobs=1, **PARAMS)
        sharded = soak_report(seeds=(1, 2), jobs=2, **PARAMS)
        assert results_digest(serial.values()) == \
            results_digest(sharded.values())


class TestCheckpointResume:
    def test_checkpointed_run_matches_plain_run(self, tmp_path):
        baseline = run_scenario(5, **PARAMS)
        checkpointed = run_scenario(
            5, checkpoint_dir=str(tmp_path / "unit"), every_events=1,
            **PARAMS)
        assert pickle.dumps(checkpointed) == pickle.dumps(baseline)

    def test_resume_restores_queue_and_clock_byte_for_byte(self, tmp_path):
        baseline = run_scenario(5, **PARAMS)
        run_scenario(5, checkpoint_dir=str(tmp_path / "unit"),
                     every_events=1, **PARAMS)
        resumed = run_scenario(
            5, checkpoint_dir=str(tmp_path / "unit"), every_events=1,
            **PARAMS)
        assert pickle.dumps(resumed) == pickle.dumps(baseline)

    def test_checkpoints_carry_the_fleet_kind(self, tmp_path):
        # one in-seed kind for both profiles; the profile rides in the
        # checkpoint parameters
        from repro.checkpoint.store import CheckpointStore
        run_scenario(5, checkpoint_dir=str(tmp_path / "unit"),
                     every_events=1, **PARAMS)
        manifest = CheckpointStore(str(tmp_path / "unit")).require_latest()
        assert manifest["kind"] == INSEED_KIND

    def test_classic_checkpoint_refuses_fleet_resume(self, tmp_path):
        run_scenario(5, hosts=2, tenants=2, frames=512, nfaults=3,
                     checkpoint_dir=str(tmp_path / "unit"),
                     every_events=1)
        # same in-seed kind, but the params' "profile" entry differs
        with pytest.raises(CheckpointError, match="parameters"):
            run_scenario(5, checkpoint_dir=str(tmp_path / "unit"),
                         every_events=1, **PARAMS)

    def test_resume_rejects_parameter_drift(self, tmp_path):
        run_scenario(5, checkpoint_dir=str(tmp_path / "unit"),
                     every_events=1, **PARAMS)
        other = dict(PARAMS, migrations=PARAMS["migrations"] + 1)
        with pytest.raises(CheckpointError, match="parameters"):
            run_scenario(5, checkpoint_dir=str(tmp_path / "unit"),
                         every_events=1, **other)


@pytest.mark.soak
class TestPinnedSweep:
    def test_eight_seed_fleet_sweep_digest_is_pinned(self):
        results = soak_report(seeds=range(8), profile="fleet",
                              migrations=6).values()
        assert results_digest(results) == FLEET_DIGEST
