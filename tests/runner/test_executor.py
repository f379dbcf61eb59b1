"""Executor behaviour: ordering, fault isolation, retries, timeouts.

The worker functions live at module level so shards can run them under
any multiprocessing start method.
"""

import os
import time

import pytest

from repro.runner import RunnerError, WorkUnit, execute


def _identity(value):
    return value


def _pid(_key):
    return os.getpid()


def _sleep_then(value, delay):
    time.sleep(delay)
    return value


def _raise_for(key, bad):
    if key == bad:
        raise ValueError("unit %r is bad" % key)
    return key * 10


def _hard_exit(_key):
    os._exit(3)


def _crash_once_then(value, sentinel_path):
    if not os.path.exists(sentinel_path):
        with open(sentinel_path, "w") as fh:
            fh.write("attempt")
        os._exit(1)
    return value


def _sleep_forever(_key):
    time.sleep(60)


class TestSerial:
    def test_runs_in_process(self):
        report = execute([WorkUnit.of(0, _pid, 0)], jobs=1)
        assert report.values() == [os.getpid()]
        assert report.results[0].worker == "serial"

    def test_clean_exception_fails_only_its_unit(self):
        units = [WorkUnit.of(i, _raise_for, i, 1) for i in range(3)]
        report = execute(units, jobs=1)
        assert [r.ok for r in report.results] == [True, False, True]
        assert "unit 1 is bad" in report.results[1].error
        with pytest.raises(RunnerError):
            report.values()


class TestParallel:
    def test_runs_out_of_process(self):
        report = execute([WorkUnit.of(0, _pid, 0)], jobs=2)
        assert report.values() != [os.getpid()]
        assert report.results[0].worker.startswith("pid:")

    def test_results_in_submission_order_despite_finish_order(self):
        # later units finish first; the merge must re-sort by plan order
        units = [WorkUnit.of(i, _sleep_then, i, (3 - i) * 0.08)
                 for i in range(4)]
        report = execute(units, jobs=4)
        assert report.values() == [0, 1, 2, 3]

    def test_clean_exception_is_isolated(self):
        units = [WorkUnit.of(i, _raise_for, i, 2) for i in range(4)]
        report = execute(units, jobs=2)
        assert [r.ok for r in report.results] == [True, True, False, True]
        assert report.results[0].value == 0


class TestFaultIsolation:
    def test_dead_worker_fails_only_its_shard(self):
        units = [WorkUnit.of(0, _identity, 42),
                 WorkUnit.of(1, _hard_exit, 1),
                 WorkUnit.of(2, _identity, 43)]
        report = execute(units, jobs=2, retries=1)
        assert [r.ok for r in report.results] == [True, False, True]
        assert report.results[1].attempts == 2      # retried once
        assert "crashed" in report.results[1].error
        kinds = [kind for kind, _ in report.events]
        assert "worker-crashed" in kinds
        assert "shard-retried" in kinds
        assert "shard-failed" in kinds

    def test_crash_then_success_on_retry(self, tmp_path):
        sentinel = str(tmp_path / "crashed-once")
        report = execute(
            [WorkUnit.of(0, _crash_once_then, 7, sentinel)],
            jobs=2, retries=2)
        assert report.values() == [7]
        assert report.results[0].attempts == 2

    def test_retries_zero_fails_immediately(self):
        report = execute([WorkUnit.of(0, _hard_exit, 0)],
                         jobs=2, retries=0)
        assert not report.results[0].ok
        assert report.results[0].attempts == 1

    def test_timeout_kills_and_fails_shard(self):
        report = execute([WorkUnit.of(0, _sleep_forever, 0)],
                         jobs=2, timeout_s=0.3, retries=0)
        assert not report.results[0].ok
        assert "timed out" in report.results[0].error
        kinds = [kind for kind, _ in report.events]
        assert "shard-timeout" in kinds


class TestReport:
    def test_utilization_and_counters(self):
        units = [WorkUnit.of(i, _sleep_then, i, 0.05) for i in range(3)]
        report = execute(units, jobs=3)
        assert 0.0 < report.utilization() <= 1.0
        counters = report.shard_counters()
        assert [c["key"] for c in counters] == ["0", "1", "2"]
        assert all(c["elapsed_s"] > 0 for c in counters)
        assert all(c["ok"] for c in counters)
