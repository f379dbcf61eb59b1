"""Crash-resumable soaks: resumed runs are byte-identical, fail closed.

The in-process classes exercise the checkpoint/resume machinery
directly; :class:`TestKillNineResume` runs the real CLI in a
subprocess, SIGKILLs it mid-sweep, resumes, and diffs the output
against an uninterrupted run — the same protocol as CI's
``resume-equivalence`` job.
"""

import os
import pickle
import subprocess
import sys

import pytest

from repro.checkpoint.store import CheckpointError, CheckpointStore
from repro.faults.soak import (
    resumable_soak,
    run_scenario,
    unit_checkpoint_path,
)

PARAMS = {"hosts": 2, "tenants": 2, "frames": 512, "nfaults": 6}


class TestInSeedResume:
    def test_checkpointed_run_matches_plain_run(self, tmp_path):
        baseline = run_scenario(3, **PARAMS)
        checkpointed = run_scenario(
            3, checkpoint_dir=str(tmp_path / "unit"), every_events=1,
            **PARAMS)
        assert pickle.dumps(checkpointed) == pickle.dumps(baseline)

    def test_resume_from_mid_seed_checkpoint(self, tmp_path):
        baseline = run_scenario(3, **PARAMS)
        # First run leaves its in-seed checkpoints behind; a second
        # call on the same store resumes from the newest one, replays
        # the remaining ops, and must land on the identical result.
        run_scenario(3, checkpoint_dir=str(tmp_path / "unit"),
                     every_events=1, **PARAMS)
        resumed = run_scenario(3, checkpoint_dir=str(tmp_path / "unit"),
                               every_events=1, **PARAMS)
        assert pickle.dumps(resumed) == pickle.dumps(baseline)

    def test_resume_rejects_different_params(self, tmp_path):
        run_scenario(3, checkpoint_dir=str(tmp_path / "unit"),
                     every_events=1, **PARAMS)
        other = dict(PARAMS, nfaults=PARAMS["nfaults"] + 1)
        with pytest.raises(CheckpointError, match="parameters"):
            run_scenario(3, checkpoint_dir=str(tmp_path / "unit"),
                         every_events=1, **other)


class TestResumableSweep:
    def test_sweep_matches_plain_results(self, tmp_path):
        seeds = [2, 3, 4]
        plain = [run_scenario(seed, **PARAMS) for seed in seeds]
        swept = resumable_soak(seeds, str(tmp_path / "ck"), every_seeds=1,
                               **PARAMS)
        assert pickle.dumps(swept) == pickle.dumps(plain)

    def test_existing_progress_requires_resume_flag(self, tmp_path):
        seeds = [2, 3]
        resumable_soak(seeds, str(tmp_path / "ck"), **PARAMS)
        with pytest.raises(CheckpointError, match="--resume"):
            resumable_soak(seeds, str(tmp_path / "ck"), **PARAMS)

    def test_resume_of_finished_sweep_is_identical(self, tmp_path):
        seeds = [2, 3]
        first = resumable_soak(seeds, str(tmp_path / "ck"), **PARAMS)
        again = resumable_soak(seeds, str(tmp_path / "ck"), resume=True,
                               **PARAMS)
        assert pickle.dumps(again) == pickle.dumps(first)

    def test_resume_rejects_parameter_drift(self, tmp_path):
        resumable_soak([2, 3], str(tmp_path / "ck"), **PARAMS)
        other = dict(PARAMS, tenants=3)
        with pytest.raises(CheckpointError, match="refusing to resume"):
            resumable_soak([2, 3], str(tmp_path / "ck"), resume=True,
                           **other)
        with pytest.raises(CheckpointError, match="refusing to resume"):
            resumable_soak([2, 3, 4], str(tmp_path / "ck"), resume=True,
                           **PARAMS)

    def test_in_seed_stores_are_per_seed(self, tmp_path):
        resumable_soak([2, 3], str(tmp_path / "ck"), every_seeds=1,
                       every_events=1, **PARAMS)
        for seed in (2, 3):
            unit = CheckpointStore(
                unit_checkpoint_path(str(tmp_path / "ck"), seed))
            manifest = unit.require_latest()
            assert manifest["kind"] == "soak-inseed"
            assert manifest["meta"]["seed"] == seed


def _soak_cli(args, checkpoint_dir):
    env = dict(os.environ, PYTHONPATH="src")
    return subprocess.run(
        [sys.executable, "-m", "repro.faults.soak", "--seeds", "4",
         "--hosts", "2", "--nfaults", "3",
         "--checkpoint-dir", checkpoint_dir, "--checkpoint-every", "2",
         "--checkpoint-events", "2"] + args,
        capture_output=True, text=True, env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))))


class TestKillNineResume:
    def test_sigkill_then_resume_is_byte_identical(self, tmp_path):
        reference = _soak_cli([], str(tmp_path / "uninterrupted"))
        assert reference.returncode == 0, reference.stderr

        killed = _soak_cli(["--sigkill-after", "2"],
                           str(tmp_path / "interrupted"))
        assert killed.returncode == -9  # SIGKILL mid-sweep

        resumed = _soak_cli(["--resume"], str(tmp_path / "interrupted"))
        assert resumed.returncode == 0, resumed.stderr
        assert resumed.stdout == reference.stdout
