"""The executor: serial in-process, or a persistent worker pool.

``execute(units, jobs=N)`` runs every :class:`~repro.runner.plan.WorkUnit`
and returns a :class:`RunReport` whose results are in submission order,
so the aggregated output is byte-identical whatever ``jobs`` was and
whichever worker finished first.

* ``jobs=1`` (the default) runs everything in-process with no
  ``multiprocessing`` machinery at all — the path the determinism
  tooling audits, and the baseline the differential tests compare
  against.
* ``jobs>1`` dispatches units to at most ``jobs`` *persistent* worker
  processes.  A new worker is handed its first unit the moment it is
  spawned, and takes the next pending unit whenever it goes idle, so
  process-global derived caches (the keystream line and span
  LRUs) stay warm across the units one worker runs — the
  registry-audited shard-purity rule (FID013) is what makes that safe:
  work units cannot mutate unregistered module state, so a warm cache
  can change wall-clock but never results.  With ``jobs`` at least the
  number of units, every unit runs in a new process of its own.  Units
  travel to workers, and results travel back, as one pickled byte blob
  each way, so the spawn/serialize overhead is measurable: the
  report's ``sharding`` section breaks out spawn vs transport vs
  compute time and the bytes moved.

A unit that raises reports its traceback and fails alone.  A worker
that *dies* (segfault, ``os._exit``, OOM kill) fails only the unit it
holds, which is retried up to ``retries`` times — on a fresh
replacement worker — before it is marked failed.  No worker exists
without a unit, and a send to a dead worker counts as a crash, so every
death is charged to one unit's retry budget, even a death before the
worker is up.  Units exceeding ``timeout_s`` (counted from dispatch,
which for a worker's first unit includes its start-up) are killed and
retried the same way.

Per-unit keystream-cache statistics are captured by *delta snapshots*
(:func:`repro.common.crypto.keystream_cache_delta`) around each unit,
never by clearing the cache — clearing would throw away exactly the
warmth the pool exists to preserve.

Failures never silently truncate a run: :meth:`RunReport.values`
raises :class:`RunnerError` listing every failed unit key.

Wall-clock is inherently part of this module's contract (timeouts,
utilization and transport counters); every *modelled* quantity in the
work units themselves still comes from the cycle counter.
"""

import multiprocessing
import pickle
# fidelint: ignore[FID007] -- the executor schedules and measures host
# wall-clock (unit timeouts, utilization); it never feeds time into
# modelled results, which remain pure functions of their seeds.
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection

from repro.common import crypto
from repro.common.errors import ReproError

#: Parent poll cadence while workers run (seconds).
_TICK_S = 0.05

#: First frame a pool worker sends once its interpreter is up — the
#: parent timestamps it to measure true spawn latency.
_READY = b"R"

#: Empty frame: the pool shutdown sentinel.
_SHUTDOWN = b""


class RunnerError(ReproError):
    """A unit failed after exhausting its retry budget."""


@dataclass
class ShardResult:
    """Outcome of one work unit, wherever it ran."""

    key: object
    ok: bool
    value: object = None
    error: str = ""
    elapsed_s: float = 0.0
    attempts: int = 1
    worker: str = "serial"


@dataclass
class RunReport:
    """Everything one ``execute`` call observed.

    ``results`` is in submission order — the deterministic merge.
    ``events`` (crashes, retries, timeouts) and ``sharding``
    (spawn/transport/compute breakdown, per-unit keystream-cache
    deltas) are wall-clock diagnostics and may legitimately differ
    between runs; nothing deterministic may be derived from them.
    """

    jobs: int
    results: list
    wall_s: float = 0.0
    busy_s: float = 0.0
    events: list = field(default_factory=list)
    sharding: dict = field(default_factory=dict)

    @property
    def failed(self):
        return [r for r in self.results if not r.ok]

    def values(self):
        """The unit return values in submission order; raises on any
        failure."""
        bad = self.failed
        if bad:
            raise RunnerError(
                "%d/%d units failed: %s" % (
                    len(bad), len(self.results),
                    "; ".join("%r: %s" % (r.key, r.error.strip().splitlines()[-1]
                                          if r.error else "unknown")
                              for r in bad[:5])))
        return [r.value for r in self.results]

    def utilization(self):
        """Busy worker time over available worker time, 0..1."""
        if self.wall_s <= 0 or self.jobs <= 0:
            return 0.0
        return min(1.0, self.busy_s / (self.wall_s * self.jobs))

    def shard_counters(self):
        """JSON-able per-unit wall-clock counters for bench artifacts."""
        return [{"key": str(r.key), "ok": r.ok, "elapsed_s": r.elapsed_s,
                 "attempts": r.attempts, "worker": r.worker}
                for r in self.results]


def _run_unit(unit):
    """Run one unit: ``(key, ok, value, error, elapsed_s)``, never raises."""
    t0 = time.perf_counter()
    try:
        return unit.key, True, unit.call(), "", time.perf_counter() - t0
    except Exception:
        return (unit.key, False, None, traceback.format_exc(),
                time.perf_counter() - t0)


def _pool_worker(conn):
    """Worker entry: announce readiness, then serve units until the
    shutdown sentinel (or a closed pipe).

    Nothing is cleared between units: the keystream caches stay warm
    on purpose, and the per-unit statistics are delta snapshots.
    """
    conn.send_bytes(_READY)
    while True:
        try:
            blob = conn.recv_bytes()
        except (EOFError, OSError):
            break
        if blob == _SHUTDOWN:
            break
        unit = pickle.loads(blob)
        before = crypto.keystream_cache_stats()
        outcome = _run_unit(unit)
        conn.send_bytes(pickle.dumps(
            (outcome, crypto.keystream_cache_delta(before)),
            pickle.HIGHEST_PROTOCOL))
    conn.close()


def execute(units, jobs=1, timeout_s=None, retries=1):
    """Run every unit and merge the results in submission order.

    Unit keys must be unique: they are the merge key.
    """
    units = list(units)
    seen = set()
    for unit in units:
        if unit.key in seen:
            raise ReproError("duplicate work-unit key %r" % (unit.key,))
        seen.add(unit.key)
    sharding = {
        "mode": "serial" if jobs <= 1 else "pool",
        "workers_spawned": 0,
        "spawn_s": 0.0,
        "transport_s": 0.0,
        "dispatch_bytes": 0,
        "result_bytes": 0,
        "compute_s": 0.0,
        "shards": [],
    }
    events = []
    t_start = time.perf_counter()
    if jobs <= 1:
        jobs = 1
        by_key = _execute_serial(units, sharding)
    else:
        by_key = _execute_pool(units, jobs, timeout_s, retries, events,
                               sharding)
    wall_s = time.perf_counter() - t_start
    ordered = [by_key[unit.key] for unit in units]
    busy_s = sum(r.elapsed_s for r in ordered)
    sharding["compute_s"] = busy_s
    return RunReport(jobs=jobs, results=ordered, wall_s=wall_s,
                     busy_s=busy_s, events=events, sharding=sharding)


def _execute_serial(units, sharding):
    by_key = {}
    for index, unit in enumerate(units):
        before = crypto.keystream_cache_stats()
        by_key[unit.key] = ShardResult(*_run_unit(unit))
        sharding["shards"].append({
            "shard": index, "worker": "serial",
            "keystream": crypto.keystream_cache_delta(before)})
    return by_key


class _PoolWorker:
    """Parent-side bookkeeping for one persistent worker process."""

    __slots__ = ("process", "spawned_at", "index", "started")

    def __init__(self, process, spawned_at):
        self.process = process
        self.spawned_at = spawned_at
        self.index = None          # submission index of the unit it holds
        self.started = 0.0         # when that unit was dispatched


def _execute_pool(units, jobs, timeout_s, retries, events, sharding):
    """At most ``jobs`` long-lived workers, each running many units
    with warm process-global caches."""
    ctx = multiprocessing.get_context()
    pending = deque(range(len(units)))
    attempts = [0] * len(units)
    by_key = {}
    workers = {}        # conn -> _PoolWorker

    def fail_or_retry(index, reason):
        key = units[index].key
        if attempts[index] <= retries:
            events.append(("shard-retried", {
                "key": key, "attempt": attempts[index], "reason": reason}))
            pending.append(index)
            return
        events.append(("shard-failed", {
            "key": key, "attempts": attempts[index], "reason": reason}))
        by_key[key] = ShardResult(key, False, error=reason,
                                  attempts=attempts[index], worker="dead")

    def retire(conn, worker, kill=False):
        del workers[conn]
        if kill:
            worker.process.terminate()
        worker.process.join()
        conn.close()

    def crashed(conn, worker):
        retire(conn, worker)
        index = worker.index
        if index is None:
            return                 # an idle worker held no unit
        exitcode = worker.process.exitcode
        events.append(("worker-crashed", {
            "key": units[index].key, "exitcode": exitcode,
            "attempt": attempts[index]}))
        fail_or_retry(index, "worker crashed (exitcode %s)" % (exitcode,))

    def dispatch(conn, worker):
        index = pending.popleft()
        attempts[index] += 1
        worker.index = index
        worker.started = t0 = time.perf_counter()
        blob = pickle.dumps(units[index], pickle.HIGHEST_PROTOCOL)
        try:
            conn.send_bytes(blob)
        except OSError:
            crashed(conn, worker)
            return
        sharding["transport_s"] += time.perf_counter() - t0
        sharding["dispatch_bytes"] += len(blob)

    def spawn():
        parent_conn, child_conn = ctx.Pipe()
        worker = _PoolWorker(
            ctx.Process(target=_pool_worker, args=(child_conn,),
                        daemon=True),
            time.perf_counter())
        worker.process.start()
        child_conn.close()
        workers[parent_conn] = worker
        sharding["workers_spawned"] += 1
        dispatch(parent_conn, worker)

    while pending or any(w.index is not None for w in workers.values()):
        for conn, worker in list(workers.items()):
            if pending and worker.index is None:
                dispatch(conn, worker)
        while pending and len(workers) < jobs:
            spawn()

        for conn in connection.wait(list(workers), timeout=_TICK_S):
            worker = workers[conn]
            t0 = time.perf_counter()
            try:
                blob = conn.recv_bytes()
            except (EOFError, OSError):
                crashed(conn, worker)
                continue
            if blob == _READY:
                sharding["spawn_s"] += t0 - worker.spawned_at
                continue
            (key, ok, value, error, elapsed), keystream = pickle.loads(blob)
            sharding["transport_s"] += time.perf_counter() - t0
            sharding["result_bytes"] += len(blob)
            name = "pid:%d" % worker.process.pid
            by_key[key] = ShardResult(key, ok, value, error, elapsed,
                                      attempts[worker.index], worker=name)
            sharding["shards"].append({
                "shard": worker.index, "worker": name,
                "keystream": keystream})
            worker.index = None

        now = time.perf_counter()
        for conn, worker in list(workers.items()):
            index, run_for = worker.index, now - worker.started
            if index is None or timeout_s is None or run_for <= timeout_s:
                continue
            retire(conn, worker, kill=True)
            events.append(("shard-timeout", {
                "key": units[index].key, "after_s": run_for,
                "attempt": attempts[index]}))
            fail_or_retry(index, "timed out after %.2fs" % run_for)

    for conn in workers:
        try:
            conn.send_bytes(_SHUTDOWN)
        except OSError:
            pass
    for conn, worker in workers.items():
        worker.process.join()
        conn.close()
    return by_key
