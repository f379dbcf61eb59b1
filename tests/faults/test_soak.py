"""Chaos soak: seeded end-to-end scenarios across the whole fleet.

The quick smoke runs on every test invocation; the full 20-seed sweep
(the ISSUE acceptance bar) is marked ``soak`` and runs in the dedicated
CI job: ``pytest -m soak``.
"""

import pytest

from repro.faults import soak as soak_cli
from repro.faults.soak import (
    DEFAULT_SEEDS,
    results_digest,
    run_scenario,
    soak,
)

#: ``python -m repro.faults.soak --seeds 20`` digest: any change to a
#: fault schedule, an op outcome or a failure message moves it
CLASSIC_DIGEST = ("c80074a99f8b250ebda60e541ee83828"
                  "b2c9e4a2db008fef1f7485fcf6d4de49")


def _assert_clean(result):
    assert result.violations == [], (
        "seed %d violated invariants:\n%s" % (
            result.seed, "\n".join(result.violations)))


class TestSmoke:
    def test_three_seeds_run_clean(self):
        for result in soak(seeds=(0, 1, 2)):
            _assert_clean(result)
            assert len(result.completed_ops) >= 1

    def test_same_seed_reproduces_the_same_schedule_byte_for_byte(self):
        first = run_scenario(17)
        second = run_scenario(17)
        assert first.schedule == second.schedule
        assert first.completed_ops == second.completed_ops
        assert first.failed_ops == second.failed_ops
        assert first.violations == second.violations

    def test_different_seeds_diverge(self):
        schedules = {run_scenario(seed).schedule for seed in (3, 4, 5, 6)}
        # Not every seed must fire a fault, but four seeds collapsing to
        # one schedule would mean the plan seeding is broken.
        assert len(schedules) > 1

    def test_classic_profile_keeps_the_scripted_order(self):
        # the classic op list, run as an event-queue schedule, pops in
        # list order and ends with the schedule's virtual clock
        ops = run_scenario(0).completed_ops
        assert ops[:-1] == ["launch:t0", "launch:t1", "disk-io",
                            "migrate:t0", "migrate:t1", "evacuate:0",
                            "shutdown:t1"]
        prefix, clock = ops[-1].split(":")
        assert prefix == "fleet-clock" and int(clock) > 0

    def test_describe_is_operator_readable(self):
        line = run_scenario(0).describe()
        assert "seed=0" in line
        assert "ok" in line


#: (argv, the flag the usage error must name); DIR and PATH become
#: paths under the test's tmp_path
USAGE_ERRORS = {
    "cadence-below-0": (["--seeds", "2", "--checkpoint-dir", "DIR",
                         "--checkpoint-every", "-1"], "--checkpoint-every"),
    "resume-without-dir": (["--resume"], "--resume"),
    "sigkill-without-dir": (["--sigkill-after", "1"], "--sigkill-after"),
    "sigkill-after-0": (["--checkpoint-dir", "DIR", "--sigkill-after",
                         "0"], "--sigkill-after"),
    "bench-json-with-dir": (["--checkpoint-dir", "DIR", "--bench-json",
                             "PATH"], "--bench-json"),
    "zero-seeds": (["--seeds", "0"], "--seeds"),
    "zero-tenants": (["--tenants", "0"], "--tenants"),
    "zero-hosts": (["--hosts", "0"], "--hosts"),
    "negative-nfaults": (["--nfaults", "-1"], "--nfaults"),
    "negative-migrations": (["--fleet-profile", "--fleet-migrations",
                             "-1"], "--fleet-migrations"),
}


class TestCli:
    @pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
    def test_ignored_or_looping_inputs_are_usage_errors(
            self, case, monkeypatch, tmp_path, capsys):
        # the CLI must refuse before it runs anything
        def ran(*args, **kwargs):
            raise AssertionError("the soak ran")
        monkeypatch.setattr(soak_cli, "soak_report", ran)
        monkeypatch.setattr(soak_cli, "resumable_soak", ran)
        argv, flag = USAGE_ERRORS[case]
        argv = [str(tmp_path / arg) if arg in ("DIR", "PATH") else arg
                for arg in argv]
        with pytest.raises(SystemExit) as exc:
            soak_cli.main(argv)
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


@pytest.mark.soak
class TestFullSweep:
    def test_twenty_seed_sweep_holds_every_invariant(self):
        results = soak(seeds=DEFAULT_SEEDS)
        assert len(results) >= 20
        for result in results:
            _assert_clean(result)
        # The sweep exercised real failures, not 20 fault-free runs.
        assert any(r.failed_ops for r in results)
        assert any(r.schedule for r in results)

    def test_sweep_is_deterministic_end_to_end(self):
        first = [r.schedule for r in soak(seeds=DEFAULT_SEEDS)]
        second = [r.schedule for r in soak(seeds=DEFAULT_SEEDS)]
        assert first == second

    def test_sweep_digest_is_pinned(self):
        assert results_digest(soak(seeds=DEFAULT_SEEDS)) == CLASSIC_DIGEST
