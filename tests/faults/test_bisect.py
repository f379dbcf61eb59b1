"""Fault-window bisection pins a failure to a minimal fault window."""

import json

import pytest

from repro.common.errors import ReproError
from repro.faults import bisect
from repro.faults.bisect import (
    ARTIFACT_SCHEMA,
    bisect_fault_window,
    predicate_holds,
    write_artifact,
)
from repro.faults.inject import FireWindow
from repro.faults.soak import run_scenario

# Seed 4 of the default scenario shape: three fault events, two of
# which break launch:t0 and migrate:t1.  The launch failure needs only
# the first event, so bisection has a real sub-window to find.
SEED, PREDICATE = 4, "failed-op:launch:t0"


class TestBisect:
    def test_finds_minimal_window(self):
        artifact = bisect_fault_window(SEED, predicate=PREDICATE)
        assert artifact["schema"] == ARTIFACT_SCHEMA
        assert artifact["seed"] == SEED
        assert artifact["window"] == {"skip": 0, "limit": 1}
        assert artifact["total_events"] == 3
        assert artifact["trials"] == 3
        assert len(artifact["events"]) == 1
        # the window the bisector found actually reproduces
        result = run_scenario(SEED, window=FireWindow(0, 1))
        assert predicate_holds(PREDICATE, result)
        # ...and the complement window does not
        result = run_scenario(SEED, window=FireWindow(1, None))
        assert not predicate_holds(PREDICATE, result)

    def test_artifact_roundtrips_as_json(self, tmp_path):
        artifact = {"schema": ARTIFACT_SCHEMA, "seed": 1,
                    "window": {"skip": 0, "limit": 2}}
        path = str(tmp_path / "artifact.json")
        write_artifact(artifact, path)
        assert json.load(open(path)) == artifact

    def test_nonfailing_predicate_is_rejected(self):
        with pytest.raises(ReproError, match="nothing to bisect"):
            bisect_fault_window(SEED, predicate="failed-op:no-such-op")

    def test_unknown_predicate_is_rejected(self):
        with pytest.raises(ReproError, match="unknown bisect"):
            predicate_holds("bogus", object())

    @pytest.mark.parametrize("flag, value", [("--hosts", "0"),
                                             ("--tenants", "0"),
                                             ("--nfaults", "-1")])
    def test_an_impossible_scenario_is_a_usage_error(
            self, flag, value, monkeypatch, capsys):
        def ran(*args, **kwargs):
            raise AssertionError("the bisection ran")
        monkeypatch.setattr(bisect, "bisect_fault_window", ran)
        with pytest.raises(SystemExit) as exc:
            bisect.main(["--seed", "4", flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
