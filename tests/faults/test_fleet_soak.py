"""The soak's ``--fleet-profile``: event-queue storms on a virtual clock.

Both soak profiles are virtual-clock
:class:`~repro.fleet.events.EventQueue` schedules popped by one
driver; the fleet profile fills the migration phase with a storm
(arrivals snapped to shared instants so the seeded tie-break resolves
real races) while keeping every fault-injection and confidentiality
check of the classic soak.  These tests pin the three contracts the
profile adds: seed determinism (the final virtual clock included),
byte-identical resumable sweeps, and fail-closed separation from
classic-profile progress.
"""

import pickle

import pytest

from repro.checkpoint.store import CheckpointError
from repro.faults.soak import (
    results_digest,
    resumable_soak,
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
        plain = soak_report(seeds=(5, 6), **PARAMS).values()
        swept = resumable_soak((5, 6), str(tmp_path / "ck"), every_seeds=1,
                               **PARAMS)
        assert pickle.dumps(swept) == pickle.dumps(plain)

    def test_classic_checkpoint_refuses_fleet_resume(self, tmp_path):
        resumable_soak((5,), str(tmp_path / "ck"), hosts=2, tenants=2,
                       frames=512, nfaults=3)
        # same progress kind, but the params' "profile" entry differs
        with pytest.raises(CheckpointError, match="refusing to resume"):
            resumable_soak((5,), str(tmp_path / "ck"), resume=True,
                           **PARAMS)

    def test_resume_rejects_parameter_drift(self, tmp_path):
        resumable_soak((5,), str(tmp_path / "ck"), **PARAMS)
        other = dict(PARAMS, migrations=PARAMS["migrations"] + 1)
        with pytest.raises(CheckpointError, match="refusing to resume"):
            resumable_soak((5,), str(tmp_path / "ck"), resume=True,
                           **other)


@pytest.mark.soak
class TestPinnedSweep:
    def test_eight_seed_fleet_sweep_digest_is_pinned(self):
        results = soak_report(seeds=range(8), profile="fleet",
                              migrations=6).values()
        assert results_digest(results) == FLEET_DIGEST
