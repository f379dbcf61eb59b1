"""Smoke tests for ``repro.eval.fleetbench`` at CI sizes.

Nothing here asserts wall-clock numbers — CI boxes are noisy.  What
must never be flaky is the report schema, the deterministic-digest
contract (serial and sharded runs agree byte for byte once the
measured ``sharding`` section is stripped), and the ``--check`` gate's
ability to actually fail.

Every report runs the smoke campaign and the lockstep differential, so
the module builds one serial and one ``--jobs 2`` report; a test that
changes a report changes a deep copy.
"""

import copy
import json

import pytest

from repro.eval import fleetbench
from repro.fleet import FleetModel


@pytest.fixture(scope="module")
def report():
    return fleetbench.run_profile("smoke")


@pytest.fixture(scope="module")
def sharded_report():
    return fleetbench.run_profile("smoke", jobs=2)


class TestReportSchema:
    def test_smoke_profile_schema(self, report):
        assert report["schema"] == fleetbench.SCHEMA
        assert report["profile"] == "smoke"
        spec = report["spec"]
        assert spec["hosts"] == 200 and spec["guests"] == 1_000
        fleet = report["fleet"]
        assert fleet["hosts"] >= spec["hosts"]     # autoscale adds some
        assert fleet["events"] > spec["guests"]
        assert fleet["metrics"]["busy_cycles"] == 83_036_119
        assert fleet["digest"] == \
            "70bb44abb6f5a9dbee488c125549513bec8d77d5a98f0ea4112a055679271f20"
        assert [region["digest"] for region in report["regions"]] == [
            "3a023c1eaf54de369f4133b5f941b9c5d69ab5148922f37d3249b83e271a8803",
            "7ebc22ad579b7a5ca30e1bbdba1ac895f3f75855337985300a89ba14cb1008ff",
            "f33c6d63d1a00c3d3e32a58304011d0546b4322cf2e5733327372d25f0b6f13f",
            "b925775ae37b54775e1635b054df6ec85d0c0abde7d64a86035d19b86f3f2874",
        ]
        assert len(report["regions"]) == spec["regions"]
        assert report["lockstep"]["ok"] is True, report["lockstep"]
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

    def test_cycle_table_rides_into_the_report(self, report):
        # as JSON lists, so a written artifact compares equal to it
        assert report["costs"] == {kind: list(pair) for kind, pair
                                   in FleetModel.CYCLES.items()}


class TestDeterministicDigest:
    def test_serial_and_sharded_digests_agree(self, report,
                                              sharded_report):
        assert fleetbench.deterministic_digest(report) == \
            fleetbench.deterministic_digest(sharded_report)
        # ...even though the measured section genuinely differs
        assert report["sharding"]["jobs"] != \
            sharded_report["sharding"]["jobs"]

    def test_digest_ignores_measured_but_not_modelled_values(self, report):
        report = copy.deepcopy(report)
        before = fleetbench.deterministic_digest(report)
        report["sharding"]["wall_s"] *= 100
        assert fleetbench.deterministic_digest(report) == before
        report["fleet"]["digest"] = "tampered"
        assert fleetbench.deterministic_digest(report) != before


class TestCheckGate:
    def test_passing_report_has_no_problems(self, report):
        assert fleetbench.check_targets(report) == []
        assert "PASS" in fleetbench.format_report(report)

    def test_wall_and_rss_misses_are_reported(self, report):
        report = copy.deepcopy(report)
        report["sharding"]["wall_s"] = report["targets"]["max_wall_s"] + 1
        report["sharding"]["peak_rss_mib"] = \
            report["targets"]["max_rss_mib"] + 1
        problems = fleetbench.check_targets(report)
        assert len(problems) == 2
        assert any("wall" in p for p in problems)
        assert any("RSS" in p for p in problems)

    def test_lockstep_divergence_fails_the_gate(self, report):
        report = copy.deepcopy(report)
        report["lockstep"].update(ok=False,
                                  mismatches=["placement of x"])
        problems = fleetbench.check_targets(report)
        assert any("lockstep" in p for p in problems)
        assert "DIVERGED" in fleetbench.format_report(report)


class TestCli:
    """``main`` over the module's report: argument handling and output,
    without running the campaign again."""

    @pytest.fixture
    def runs(self, monkeypatch, report):
        calls = []

        def run_profile(profile, jobs=1):
            calls.append((profile, jobs))
            return copy.deepcopy(report)

        monkeypatch.setattr(fleetbench, "run_profile", run_profile)
        return calls

    def test_json_artifact_round_trips(self, runs, tmp_path, capsys):
        out = tmp_path / "BENCH_fleet.json"
        rc = fleetbench.main(["--profile", "smoke", "--json", "--out",
                              str(out), "--check"])
        assert rc == 0
        assert runs == [("smoke", 1)]
        written = json.loads(out.read_text())
        assert written["schema"] == fleetbench.SCHEMA
        assert written == json.loads(capsys.readouterr().out)

    def test_human_output_mentions_the_fleet(self, runs, capsys):
        rc = fleetbench.main(["--profile", "smoke", "--jobs", "2"])
        assert rc == 0
        assert runs == [("smoke", 2)]
        text = capsys.readouterr().out
        assert "Fleet benchmark (smoke profile)" in text
        assert "digest:" in text
        assert "lockstep vs real Cloud: OK" in text
