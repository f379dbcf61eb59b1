"""Crash-resumable soaks: resumed runs are byte-identical, fail closed.

The soak resumes at seed boundaries, from its progress store.
:class:`TestResumableSweep` exercises that store directly;
:class:`TestKillNineResume` runs the real CLI in a subprocess,
SIGKILLs it mid-sweep, resumes (serially and at ``--jobs 2``), and
diffs the output against an uninterrupted run — the same protocol as
CI's ``resume-equivalence`` job.
"""

import os
import pickle
import subprocess
import sys

import pytest

from repro.checkpoint.store import CheckpointError
from repro.common.errors import ReproError
from repro.faults import soak
from repro.faults.soak import resumable_soak, run_scenario

PARAMS = {"hosts": 2, "tenants": 2, "frames": 512, "nfaults": 6}


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

    def test_negative_cadence_is_refused_before_the_store(self, tmp_path,
                                                          monkeypatch):
        def ran(*args, **kwargs):
            raise AssertionError("a sweep ran")
        monkeypatch.setattr(soak, "soak_report", ran)
        with pytest.raises(ReproError, match="at least 0"):
            resumable_soak([2, 3], str(tmp_path / "ck"), every_seeds=-1,
                           **PARAMS)
        assert not (tmp_path / "ck").exists()


def _soak_cli(args, checkpoint_dir):
    env = dict(os.environ, PYTHONPATH="src")
    return subprocess.run(
        [sys.executable, "-m", "repro.faults.soak", "--seeds", "4",
         "--hosts", "2", "--nfaults", "3",
         "--checkpoint-dir", checkpoint_dir, "--checkpoint-every", "2"]
        + args,
        capture_output=True, text=True, env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))))


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    """One uninterrupted run's output, the reference for every resume."""
    reference = _soak_cli(
        [], str(tmp_path_factory.mktemp("uninterrupted") / "ck"))
    assert reference.returncode == 0, reference.stderr
    return reference.stdout


class TestKillNineResume:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sigkill_then_resume_is_byte_identical(self, tmp_path,
                                                   uninterrupted, jobs):
        killed = _soak_cli(["--sigkill-after", "2"],
                           str(tmp_path / "interrupted"))
        assert killed.returncode == -9  # SIGKILL mid-sweep

        resumed = _soak_cli(["--resume", "--jobs", str(jobs)],
                            str(tmp_path / "interrupted"))
        assert resumed.returncode == 0, resumed.stderr
        assert resumed.stdout == uninterrupted
