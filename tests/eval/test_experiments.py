"""Shape tests for every reproduced table and figure.

Per the reproduction contract, absolute numbers need not match the
authors' Ryzen testbed, but the *shape* must: who wins, by roughly what
factor, and where the outliers sit.
"""

import pytest

from repro.eval import (
    average_overheads,
    crypto_copy_benchmark,
    gate_cost_benchmark,
    permission_matrix,
    priv_instruction_matrix,
    run_figure,
    run_table3,
    shadow_cost_benchmark,
)


@pytest.fixture(scope="module")
def fig5():
    return run_figure("fig5")


@pytest.fixture(scope="module")
def fig6():
    return run_figure("fig6")


@pytest.fixture(scope="module")
def table3():
    return run_table3(frames=4096)


class TestFigure5:
    def test_fidelius_average_under_one_percent(self, fig5):
        fid_avg, _ = average_overheads(fig5)
        assert fid_avg < 1.5  # paper: "less than 1%"

    def test_fidelius_enc_average_near_paper(self, fig5):
        _, enc_avg = average_overheads(fig5)
        assert 3.5 < enc_avg < 8.0  # paper: 5.38%

    def test_mcf_and_omnetpp_are_the_outliers(self, fig5):
        by_enc = sorted(fig5, key=lambda r: r.fidelius_enc_overhead_pct)
        assert {by_enc[-1].name, by_enc[-2].name} == {"mcf", "omnetpp"}

    def test_mcf_magnitude(self, fig5):
        mcf = next(r for r in fig5 if r.name == "mcf")
        assert mcf.fidelius_enc_overhead_pct == pytest.approx(17.3, abs=3.0)

    def test_cpu_bound_programs_nearly_free(self, fig5):
        """bzip2, hmmer, h264ref: 'nearly no overhead'."""
        for name in ("bzip2", "hmmer", "h264ref"):
            row = next(r for r in fig5 if r.name == name)
            assert row.fidelius_enc_overhead_pct < 3.0

    def test_enc_always_costs_at_least_fidelius(self, fig5):
        for row in fig5:
            assert row.fidelius_enc_overhead_pct >= \
                row.fidelius_overhead_pct

    def test_deterministic(self, fig5):
        again = run_figure("fig5")
        assert [r.fidelius_enc_overhead_pct for r in again] == \
            [r.fidelius_enc_overhead_pct for r in fig5]


class TestFigure6:
    def test_fidelius_average_negligible(self, fig6):
        fid_avg, _ = average_overheads(fig6)
        assert fid_avg < 1.0  # paper: 0.43%

    def test_enc_average_near_paper(self, fig6):
        _, enc_avg = average_overheads(fig6)
        assert 1.0 < enc_avg < 4.0  # paper: 1.97%

    def test_canneal_is_the_single_outlier(self, fig6):
        by_enc = sorted(fig6, key=lambda r: r.fidelius_enc_overhead_pct)
        assert by_enc[-1].name == "canneal"
        assert by_enc[-1].fidelius_enc_overhead_pct == \
            pytest.approx(14.27, abs=3.0)
        # and the runner-up is far behind
        assert by_enc[-2].fidelius_enc_overhead_pct < 6.0


class TestTable3:
    def test_row_order(self, table3):
        assert [r.name for r in table3] == \
            ["rand-read", "seq-read", "rand-write", "seq-write"]

    def test_seq_read_is_the_worst_case(self, table3):
        rows = {r.name: r.slowdown_pct for r in table3}
        assert rows["seq-read"] == max(rows.values())
        assert rows["seq-read"] == pytest.approx(22.91, abs=6.0)

    def test_write_cheaper_than_read(self, table3):
        """Batched off-critical-path encryption vs waiting for decrypt."""
        rows = {r.name: r.slowdown_pct for r in table3}
        assert rows["seq-write"] < rows["seq-read"]
        assert rows["rand-write"] < rows["rand-read"]

    def test_random_ops_barely_affected(self, table3):
        rows = {r.name: r.slowdown_pct for r in table3}
        assert rows["rand-read"] < 4.0    # paper: 1.38%
        assert rows["rand-write"] < 3.0   # paper: 0.70%
        assert rows["rand-write"] == min(rows.values())

    def test_seq_write_magnitude(self, table3):
        rows = {r.name: r.slowdown_pct for r in table3}
        assert rows["seq-write"] == pytest.approx(3.61, abs=2.0)

    def test_all_slowdowns_positive(self, table3):
        assert all(r.slowdown_pct > 0 for r in table3)


class TestMicroBenchmarks:
    def test_gate_costs_match_paper_exactly(self):
        costs = gate_cost_benchmark(iterations=200)
        assert costs.type1_cycles == pytest.approx(306)
        assert costs.type2_cycles == pytest.approx(16)
        assert costs.type3_cycles == pytest.approx(339)
        assert costs.type3_tlb_flush_cycles == pytest.approx(128)
        assert costs.write_into_cache_cycles <= 2

    def test_cr3_switch_alternative_far_costlier(self):
        costs = gate_cost_benchmark(iterations=50)
        assert costs.cr3_switch_alternative_cycles > 5 * costs.type3_cycles

    def test_shadow_roundtrip_661(self):
        costs = shadow_cost_benchmark(iterations=100)
        assert costs.shadow_check_cycles == pytest.approx(661, abs=1)
        assert costs.added_cycles == pytest.approx(661, abs=30)

    def test_crypto_copy_matches_paper(self):
        costs = crypto_copy_benchmark(megabytes=16)
        assert costs.aesni_slowdown_pct == pytest.approx(11.49, abs=0.1)
        assert costs.sev_engine_slowdown_pct == pytest.approx(8.69, abs=0.5)
        assert costs.software_slowdown_x > 20.0

    def test_sev_engine_cheaper_than_aesni(self):
        """'the SEV based I/O protection is more attractive' (§7.2)."""
        costs = crypto_copy_benchmark(megabytes=16)
        assert costs.sev_engine_slowdown_pct < costs.aesni_slowdown_pct


class TestObservedTables12:
    def test_table1_rows(self):
        rows = {r.resource: r.xen_permission for r in permission_matrix()}
        assert rows == {
            "Page tables (Xen)": "read-only",
            "NPT (guest VM)": "read-only",
            "Grant tables": "read-only",
            "Page info table": "read-only",
            "Grant info table": "read-only",
            "Shadow states": "no access",
            "SEV metadata": "no access",
        }

    def test_table2_rows(self):
        rows = {r.instruction: r for r in priv_instruction_matrix()}
        assert rows["mov-cr0"].observed == "executable"
        assert rows["mov-cr4"].observed == "executable"
        assert rows["wrmsr"].observed == "executable"
        assert "inaccessible" in rows["vmrun"].observed
        assert "inaccessible" in rows["mov-cr3"].observed
