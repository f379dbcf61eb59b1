"""Crash-resumable soaks: resumed runs are byte-identical, fail closed.

The soak resumes at seed boundaries, from one verified progress file.
:class:`TestProgressFile` holds that file to its fail-closed reads;
:class:`TestResumableSweep` drives the sweep directly;
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

from repro.common.errors import ReproError
from repro.faults import soak
from repro.faults.soak import (
    PROGRESS_SCHEMA,
    CheckpointError,
    SoakResult,
    atomic_write,
    read_progress,
    resumable_soak,
    run_scenario,
    write_progress,
)

PARAMS = {"hosts": 2, "tenants": 2, "frames": 512, "nfaults": 6}

PROGRESS = {"results": [SoakResult(seed=0, completed_ops=["launch:t0"])],
            "next_index": 1, "params": {"seeds": [0, 1]}}


@pytest.fixture
def progress_file(tmp_path):
    path = str(tmp_path / "progress")
    write_progress(path, PROGRESS)
    with open(path, "rb") as handle:
        return path, handle.read()


def _overwrite(path, data):
    with open(path, "wb") as handle:
        handle.write(data)


class TestProgressFile:
    def test_round_trip(self, progress_file):
        path, _ = progress_file
        assert read_progress(path) == PROGRESS

    def test_missing_file_is_no_progress(self, tmp_path):
        assert read_progress(str(tmp_path / "progress")) is None

    def test_every_truncation_is_refused(self, progress_file):
        path, full = progress_file
        for cut in range(len(full)):
            _overwrite(path, full[:cut])
            with pytest.raises(CheckpointError):
                read_progress(path)

    def test_a_flipped_body_byte_is_refused(self, progress_file):
        path, full = progress_file
        _overwrite(path, full[:-1] + bytes([full[-1] ^ 1]))
        with pytest.raises(CheckpointError, match="SHA-256"):
            read_progress(path)

    def test_a_wrong_schema_tag_is_refused(self, progress_file):
        path, full = progress_file
        tag = PROGRESS_SCHEMA.encode()
        _overwrite(path, full.replace(tag, tag[:-1] + b"0", 1))
        with pytest.raises(CheckpointError, match="not fidelius-soak"):
            read_progress(path)

    def test_a_directory_at_the_path_is_refused(self, tmp_path):
        # e.g. a checkpoint dir left in the old progress/ store layout
        os.makedirs(str(tmp_path / "progress" / "manifests"))
        with pytest.raises(CheckpointError, match="cannot read"):
            read_progress(str(tmp_path / "progress"))

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = str(tmp_path / "f")
        atomic_write(path, b"old")
        atomic_write(path, b"payload")
        assert open(path, "rb").read() == b"payload"
        assert os.listdir(str(tmp_path)) == ["f"]


class TestResumableSweep:
    def test_sweep_matches_plain_results(self, tmp_path):
        seeds = [2, 3, 4]
        plain = [run_scenario(seed, **PARAMS) for seed in seeds]
        swept = resumable_soak(seeds, str(tmp_path / "ck"), every_seeds=1,
                               **PARAMS)
        assert pickle.dumps(swept) == pickle.dumps(plain)
        assert os.listdir(str(tmp_path / "ck")) == ["progress"]

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
