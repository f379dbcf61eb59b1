"""Smoke tests for ``repro.eval.fleetbench`` at CI sizes.

As with perfbench, nothing here asserts wall-clock numbers — CI boxes
are noisy.  What must never be flaky is the report schema, the
deterministic-digest contract (serial and sharded runs agree byte for
byte once the measured ``sharding`` section is stripped), and the
``--check`` gate's ability to actually fail.
"""

import json

from repro.eval import fleetbench
from repro.fleet import load_cost_table


def _report(**kwargs):
    kwargs.setdefault("lockstep", False)
    return fleetbench.run_profile("smoke", **kwargs)


class TestReportSchema:
    def test_smoke_profile_schema(self):
        report = _report()
        assert report["schema"] == fleetbench.SCHEMA
        assert report["profile"] == "smoke"
        spec = report["spec"]
        assert spec["hosts"] == 200 and spec["guests"] == 1_000
        fleet = report["fleet"]
        assert fleet["hosts"] >= spec["hosts"]     # autoscale adds some
        assert fleet["events"] > spec["guests"]
        assert fleet["digest"]
        assert len(report["regions"]) == spec["regions"]
        assert report["costs"]["source"] == "default"
        sharding = report["sharding"]
        assert sharding["jobs"] == 1
        assert sharding["wall_s"] > 0
        assert sharding["events_per_s"] > 0
        assert sharding["peak_rss_mib"] > 0

    def test_unknown_profile_is_refused(self):
        try:
            fleetbench.run_profile("galactic")
            assert False, "expected ValueError"
        except ValueError as exc:
            assert "smoke" in str(exc)

    def test_calibrated_costs_ride_into_the_report(self, tmp_path):
        bench = {"benchmarks": {
            "enc_rw_mix": {"ops": 1000, "optimized_s": 0.02},
            "walker_tlb": {"per_translation_us": 5.0},
            "guest_macro": {"rounds": 4, "optimized_s": 0.012},
        }}
        path = tmp_path / "BENCH_simulator.json"
        path.write_text(json.dumps(bench))
        report = _report(costs=load_cost_table(str(path)))
        assert report["costs"]["source"] == "bench"
        assert report["costs"]["line_op_ns"] == 20_000
        assert report["costs"]["translation_ns"] == 5_000


class TestDeterministicDigest:
    def test_serial_and_sharded_digests_agree(self):
        serial = _report(jobs=1)
        sharded = _report(jobs=2)
        assert fleetbench.deterministic_digest(serial) == \
            fleetbench.deterministic_digest(sharded)
        # ...even though the measured section genuinely differs
        assert serial["sharding"]["jobs"] != sharded["sharding"]["jobs"]

    def test_digest_ignores_measured_but_not_modelled_values(self):
        report = _report()
        before = fleetbench.deterministic_digest(report)
        report["sharding"]["wall_s"] *= 100
        assert fleetbench.deterministic_digest(report) == before
        report["fleet"]["digest"] = "tampered"
        assert fleetbench.deterministic_digest(report) != before


class TestCheckGate:
    def test_passing_report_has_no_problems(self):
        report = _report()
        assert fleetbench.check_targets(report) == []
        assert "PASS" in fleetbench.format_report(report)

    def test_wall_and_rss_misses_are_reported(self):
        report = _report()
        report["sharding"]["wall_s"] = report["targets"]["max_wall_s"] + 1
        report["sharding"]["peak_rss_mib"] = \
            report["targets"]["max_rss_mib"] + 1
        problems = fleetbench.check_targets(report)
        assert len(problems) == 2
        assert any("wall" in p for p in problems)
        assert any("RSS" in p for p in problems)

    def test_lockstep_divergence_fails_the_gate(self):
        report = _report()
        report["lockstep"] = {"ok": False,
                              "mismatches": ["placement of x"]}
        problems = fleetbench.check_targets(report)
        assert any("lockstep" in p for p in problems)


class TestCli:
    def test_json_artifact_round_trips(self, tmp_path, capsys):
        out = tmp_path / "BENCH_fleet.json"
        rc = fleetbench.main(["--profile", "smoke", "--no-lockstep",
                              "--json", "--out", str(out), "--check"])
        assert rc == 0
        written = json.loads(out.read_text())
        assert written["schema"] == fleetbench.SCHEMA
        assert written == json.loads(capsys.readouterr().out)

    def test_human_output_mentions_the_fleet(self, capsys):
        rc = fleetbench.main(["--profile", "smoke", "--no-lockstep"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "Fleet benchmark (smoke profile)" in text
        assert "digest:" in text
