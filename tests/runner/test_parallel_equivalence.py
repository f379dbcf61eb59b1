"""The determinism contract, end to end: a sharded run's aggregated
output is byte-identical to the serial run's, for every subsystem the
runner backs.  CI repeats the soak check at full 20-seed size in the
``parallel-equivalence`` job; here the sweeps are sized for tier-1.
"""

from repro.attacks.suite import ALL_ATTACKS, run_matrix
from repro.eval.macro import run_figure
from repro.eval.sensitivity import encryption_latency_sweep, exit_rate_sweep
from repro.faults.soak import results_digest, soak, soak_report
from repro.runner import digest


class TestSoakEquivalence:
    def test_serial_and_sharded_soak_digests_match(self):
        kwargs = dict(seeds=(0, 1, 2), hosts=2, tenants=1,
                      frames=512, nfaults=2)
        serial = soak(**kwargs)
        sharded = soak(jobs=2, **kwargs)
        assert results_digest(serial) == results_digest(sharded)
        # and the merged order is seed order, not completion order
        assert [r.seed for r in sharded] == [0, 1, 2]

    def test_soak_report_carries_shard_counters(self):
        report = soak_report(seeds=(0, 1), jobs=2, hosts=2, tenants=1,
                             frames=512, nfaults=2)
        counters = report.shard_counters()
        assert [c["key"] for c in counters] == ["0", "1"]
        assert all(c["attempts"] == 1 for c in counters)
        assert report.jobs == 2
        assert report.wall_s > 0


class TestEvalEquivalence:
    def test_figure_rows_identical(self):
        serial = run_figure("fig5", instructions=20_000)
        sharded = run_figure("fig5", instructions=20_000, jobs=2)
        assert serial == sharded
        assert digest(serial) == digest(sharded)

    def test_latency_sweep_identical(self):
        serial = encryption_latency_sweep(instructions=20_000)
        sharded = encryption_latency_sweep(instructions=20_000, jobs=2)
        assert digest(serial) == digest(sharded)

    def test_exit_rate_sweep_identical(self):
        assert exit_rate_sweep(instructions=20_000) == \
            exit_rate_sweep(instructions=20_000, jobs=2)


class TestAttackEquivalence:
    def test_matrix_rows_identical(self):
        subset = ALL_ATTACKS[:6]
        serial = run_matrix(attacks=subset)
        sharded = run_matrix(attacks=subset, jobs=2)
        assert serial == sharded
        assert [row.name for row in sharded] == \
            [fn.attack_name for fn in subset]
