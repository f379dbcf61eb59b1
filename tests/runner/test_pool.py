"""Persistent worker pool: reuse, warm caches, equivalence, faults.

The pool's contract is that it changes *wall-clock shape only*: the
merged results are byte-identical to the serial run and to a serial
run with every derived cache emptied before each unit, while workers
live across units so the process-global keystream caches stay warm.
The worker functions live at module level so units can run them under
any start method.
"""

import importlib
import os
import sys
import textwrap
import threading
import time

import pytest

from repro.common import crypto, state_registry
from repro.runner import (
    RunnerError,
    WorkUnit,
    deterministic_digest,
    execute,
)
from repro.runner import executor


def _pid(_key):
    return os.getpid()


def _keystream_probe(seed):
    """Deterministic result that exercises the keystream line cache."""
    key = bytes([seed % 256]) * crypto.KEY_BYTES
    word = crypto.span_keystream_int(key, 0, 4)
    return word % (2 ** 61 - 1)


def _reset_derived_caches():
    """Empty every registered derived cache through its reset hook."""
    hooks = {(entry.module, entry.reset)
             for entry in state_registry.all_entries()
             if entry.classification == "derived-cache"}
    assert hooks, "the registry lists no derived cache"
    for module, reset in sorted(hooks):
        getattr(importlib.import_module(module), reset)()


def _cold_keystream_probe(seed):
    _reset_derived_caches()
    assert crypto.keystream_cache_stats()["line_entries"] == 0
    return _keystream_probe(seed)


def _hard_exit(_key):
    os._exit(3)


def _die_at_start(_conn):
    os._exit(1)


def _crash_once_then(value, sentinel_path):
    if not os.path.exists(sentinel_path):
        with open(sentinel_path, "w") as fh:
            fh.write("attempt")
        os._exit(1)
    return value


def _sleep_forever(_key):
    time.sleep(60)


def _units(count, fn=_keystream_probe):
    return [WorkUnit.of(i, fn, i) for i in range(count)]


class TestWorkerReuse:
    def test_pool_runs_many_shards_per_worker(self):
        report = execute(_units(6, _pid), jobs=2)
        pids = set(report.values())
        assert len(pids) <= 2                       # at most `jobs` workers
        assert report.sharding["mode"] == "pool"
        assert report.sharding["workers_spawned"] <= 2
        assert len(report.sharding["shards"]) == 6

    def test_jobs_covering_every_unit_gives_each_its_own_process(self):
        # every worker is spawned holding a unit, so with as many jobs
        # as units no unit shares a process (the cold-cache CI arm)
        report = execute(_units(4, _pid), jobs=4)
        assert len(set(report.values())) == 4
        assert report.sharding["workers_spawned"] == 4
        assert len({r.worker for r in report.results}) == 4

    def test_pool_keeps_keystream_caches_warm(self):
        # Every unit computes the same spans; under the pool, units
        # after a worker's first report zero line misses (warm cache),
        # which is exactly what a new process cannot do.
        units = [WorkUnit.of(i, _keystream_probe, 7) for i in range(4)]
        pooled = execute(units, jobs=2)
        misses = [s["keystream"]["line_misses"]
                  for s in pooled.sharding["shards"]]
        assert 0 in misses                          # some unit ran warm
        assert any(m > 0 for m in misses)           # the first ones filled


class TestEquivalence:
    def test_serial_pool_fresh_values_identical(self):
        # The "fresh" arm runs serially but empties every registered
        # derived cache before each unit.  Seeds repeat, so the serial
        # and pooled arms hit warm caches where the fresh arm cannot.
        def units(fn):
            return [WorkUnit.of(i, fn, i % 3) for i in range(8)]
        serial = execute(units(_keystream_probe), jobs=1)
        pooled = execute(units(_keystream_probe), jobs=3)
        fresh = execute(units(_cold_keystream_probe), jobs=1)
        assert serial.values() == pooled.values() == fresh.values()
        assert deterministic_digest(serial.values()) \
            == deterministic_digest(pooled.values()) \
            == deterministic_digest(fresh.values())
        assert any(s["keystream"]["line_misses"] == 0
                   for s in serial.sharding["shards"])

    def test_sharding_is_excluded_from_deterministic_digest(self):
        report = execute(_units(3), jobs=2)
        payload = {"values": report.values(), "sharding": report.sharding}
        bare = {"values": report.values()}
        assert deterministic_digest(payload) == deterministic_digest(bare)


def test_runtime_differential_shard_global_is_silently_dropped(tmp_path):
    # Run a leaky shard function serially and under jobs=2.  The
    # *returned* values merge identically, but the module-global
    # accumulator only fills in the serial run — worker-process state
    # never comes home.
    mod_dir = tmp_path / "leakymod_pkg"
    mod_dir.mkdir()
    (mod_dir / "leakymod.py").write_text(textwrap.dedent("""\
        RESULTS = []


        def leaky(seed):
            RESULTS.append(seed * 3)
            return seed * 3
        """))
    sys.path.insert(0, str(mod_dir))
    try:
        leakymod = importlib.import_module("leakymod")
        seeds = [1, 2, 3, 4]

        serial = execute(
            [WorkUnit.of(s, leakymod.leaky, s) for s in seeds], jobs=1)
        assert serial.values() == [3, 6, 9, 12]
        assert leakymod.RESULTS == [3, 6, 9, 12]

        leakymod.RESULTS.clear()
        parallel = execute(
            [WorkUnit.of(s, leakymod.leaky, s) for s in seeds], jobs=2)
        assert parallel.values() == [3, 6, 9, 12]   # merge looks fine...
        assert leakymod.RESULTS == []               # ...the state is gone
    finally:
        sys.path.remove(str(mod_dir))
        sys.modules.pop("leakymod", None)


class TestShardingBreakdown:
    def test_breakdown_fields_present(self):
        report = execute(_units(4), jobs=2)
        sharding = report.sharding
        for field_name in ("mode", "workers_spawned", "spawn_s",
                           "transport_s", "compute_s", "dispatch_bytes",
                           "result_bytes", "shards"):
            assert field_name in sharding, field_name
        assert sharding["spawn_s"] > 0
        assert sharding["dispatch_bytes"] > 0
        assert sharding["result_bytes"] > 0
        for record in sharding["shards"]:
            assert record["worker"].startswith("pid:")
            assert "line_misses" in record["keystream"]

    def test_serial_mode_reports_zero_spawn(self):
        report = execute(_units(2), jobs=1)
        assert report.sharding["mode"] == "serial"
        assert report.sharding["workers_spawned"] == 0
        assert report.sharding["spawn_s"] == 0.0
        assert len(report.sharding["shards"]) == 2  # one per unit


class TestPoolFaults:
    def test_dead_pool_worker_fails_only_its_shard(self):
        units = [WorkUnit.of(0, _keystream_probe, 0),
                 WorkUnit.of(1, _hard_exit, 1),
                 WorkUnit.of(2, _keystream_probe, 2)]
        report = execute(units, jobs=2, retries=1)
        assert [r.ok for r in report.results] == [True, False, True]
        assert report.results[1].attempts == 2
        kinds = [kind for kind, _ in report.events]
        assert "worker-crashed" in kinds
        with pytest.raises(RunnerError):
            report.values()

    def test_worker_dying_before_ready_is_charged_to_its_unit(
            self, monkeypatch):
        # Workers that die before they report ready must still use up
        # the unit's retry budget; otherwise the pool respawns them
        # forever and execute never returns.
        monkeypatch.setattr(executor, "_pool_worker", _die_at_start)
        reports = []
        thread = threading.Thread(
            target=lambda: reports.append(
                execute(_units(1), jobs=2, retries=1)),
            daemon=True)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive(), "execute never returned"
        result = reports[0].results[0]
        assert not result.ok
        assert result.attempts == 2
        assert "worker-crashed" in [kind for kind, _ in reports[0].events]
        assert reports[0].sharding["workers_spawned"] == 2

    def test_pool_crash_then_success_on_retry(self, tmp_path):
        sentinel = str(tmp_path / "crashed-once")
        report = execute(
            [WorkUnit.of(0, _crash_once_then, 7, sentinel)],
            jobs=2, retries=2)
        assert report.values() == [7]
        assert report.results[0].attempts == 2

    def test_pool_timeout_kills_and_fails_shard(self):
        report = execute([WorkUnit.of(0, _sleep_forever, 0)],
                         jobs=2, timeout_s=0.3, retries=0)
        assert not report.results[0].ok
        assert "timed out" in report.results[0].error
        kinds = [kind for kind, _ in report.events]
        assert "shard-timeout" in kinds
