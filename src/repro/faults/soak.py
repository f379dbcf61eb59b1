"""The chaos soak harness: scripted fleet workloads under injected faults.

One scenario = one seed.  The seed fixes both the fault plan
(:meth:`~repro.faults.plan.FaultPlan.random`) and the fleet (every
host's machine RNG), so a failing schedule replays byte for byte from
the seed alone — run the same seed twice and :func:`schedule_bytes`
returns identical bytes.

The workload launches tenants with secret payloads, drives encrypted
disk I/O, migrates tenants, evacuates a host and shuts a tenant down,
with faults armed at every boundary.  It is a seeded
:class:`~repro.fleet.events.EventQueue` schedule on a virtual clock,
popped by one driver.  Two profiles fill the migration phase: the
*classic* profile migrates every tenant once, in order; the *fleet*
profile (``--fleet-profile``) runs a migration storm whose arrivals
collide on shared instants and race through the queue's seeded
tie-break.  After each operation, and once more after disarming, the
harness asserts the two paper-level properties the fault injection
exists to defend:

* **placement** — every tenant is running on exactly one host (its
  domain live on the host its handle names, no duplicate incarnations
  anywhere), or its operation raised cleanly and it stayed put;
* **confidentiality** — no tenant secret appears in any host's raw DRAM
  (:func:`repro.eval.security.plaintext_leak_scan`), whatever faults
  the platform absorbed.

The final phase also re-enters every surviving tenant (proving a
cancelled migration really leaves the source RUNNING) and runs the full
:func:`repro.core.invariants.check_invariants` audit on every host.

Crash resumability (``--checkpoint-dir`` / ``--resume``): a long soak
saves its completed-seed results through :mod:`repro.checkpoint` into a
*progress* store every ``--checkpoint-every`` seeds.  A killed soak
resumed from that store re-runs at most the chunk the kill interrupted,
and its report and digest are byte-identical to the uninterrupted run;
CI's ``resume-equivalence`` job SIGKILLs a 20-seed soak at seed 10,
resumes it at ``--jobs 2`` and holds us to that.
"""

import json
import os
import random
import signal
from dataclasses import dataclass, field

from repro.checkpoint import (
    CheckpointError,
    CheckpointStore,
    restore,
    snapshot,
)
from repro.cloud import Cloud
from repro.common.errors import ReproError
from repro.core.invariants import check_invariants
from repro.eval.security import plaintext_leak_scan
from repro.faults.inject import arm_cloud, schedule_bytes
from repro.faults.plan import FaultPlan
from repro.fleet.events import Event, EventQueue
from repro.runner import (
    WorkUnit,
    add_jobs_argument,
    digest,
    execute,
    int_at_least,
)
from repro.system import GuestOwner
from repro.xen import hypercalls as hc

#: The fixed seed set CI soaks over (acceptance floor: 20 seeds).
DEFAULT_SEEDS = tuple(range(20))

#: Manifest kind of the progress store.
PROGRESS_KIND = "soak-progress"

#: The workload profiles: how the schedule fills its migration phase.
PROFILES = ("classic", "fleet")

#: virtual spacing/spans (ns) of the schedule
LAUNCH_SPACING_NS = 1_000_000
STORM_SPAN_NS = 8_000_000
#: storm arrivals snap to this grid so same-instant collisions (the
#: interesting case for the seeded tie-break) actually happen
STORM_SLOTS = 4


@dataclass
class SoakResult:
    """Everything one scenario observed, for assertions and replay."""

    seed: int
    completed_ops: list = field(default_factory=list)
    failed_ops: list = field(default_factory=list)   # (op, error string)
    violations: list = field(default_factory=list)
    schedule: bytes = b""
    survivors: int = 0

    @property
    def clean(self):
        return not self.violations

    def describe(self):
        return ("seed=%d ok=%d failed-clean=%d faults=%d survivors=%d %s"
                % (self.seed, len(self.completed_ops), len(self.failed_ops),
                   len(self.schedule.splitlines()), self.survivors,
                   "CLEAN" if self.clean else "VIOLATED"))


def _secret(seed, name):
    """A high-entropy-looking needle unique to (scenario, tenant)."""
    return (b"SOAK-SECRET|%s|seed=%d|" % (name.encode(), seed)) * 4


def fleet_violations(cloud, secrets):
    """The placement and confidentiality checks, against a live fleet."""
    violations = []
    for tenant in cloud.tenants.values():
        host = cloud.host(tenant.host_index)
        if host.hypervisor.domains.get(tenant.domain.domid) \
                is not tenant.domain:
            violations.append("tenant %r lost: domain %d not live on "
                              "host %d" % (tenant.name, tenant.domain.domid,
                                           tenant.host_index))
        incarnations = sum(
            1 for system in cloud.hosts
            for domain in system.hypervisor.domains.values()
            if domain.name == tenant.name)
        if incarnations != 1:
            violations.append("tenant %r has %d incarnations across the "
                              "fleet" % (tenant.name, incarnations))
    for index, system in enumerate(cloud.hosts):
        for leak in plaintext_leak_scan(system, secrets):
            violations.append("host %d: %s" % (index, leak))
    return violations


def _attempt(result, cloud, secrets, name, operation):
    """Run one workload step; a clean ReproError is an accepted outcome,
    anything the fleet checks flag afterwards is not."""
    try:
        operation()
        result.completed_ops.append(name)
    except ReproError as exc:
        result.failed_ops.append((name, str(exc)))
    result.violations.extend(
        "%s: %s" % (name, v) for v in fleet_violations(cloud, secrets))


# -- scenario construction -------------------------------------------------------


def _scenario_params(hosts=3, tenants=2, frames=1024, nfaults=4,
                     profile="classic", migrations=6):
    """The parameters a progress store must match to be resumed; fails
    closed on an unknown profile.  Both profiles carry ``profile``, so
    neither resumes the other's progress; only the storm has a size."""
    if profile not in PROFILES:
        raise ReproError("unknown soak profile %r" % profile)
    params = {"hosts": hosts, "tenants": tenants, "frames": frames,
              "nfaults": nfaults, "profile": profile}
    if profile == "fleet":
        params["migrations"] = migrations
    return params


def _schedule(seed, names, profile, migrations):
    """The workload as a seeded, picklable event queue.

    Tenants launch one ``LAUNCH_SPACING_NS`` apart, then disk I/O,
    the migration phase, the evacuation of host 0 and the last tenant's
    shutdown.  The classic phase migrates every tenant once, in order,
    at distinct instants; the fleet storm draws ``migrations`` victims
    and snaps their arrivals to ``STORM_SLOTS`` shared instants.
    """
    queue = EventQueue(seed ^ 0x57E51)
    for index, name in enumerate(names):
        queue.schedule(index * LAUNCH_SPACING_NS,
                       Event.of("launch", name=name, index=index))
    base = len(names) * LAUNCH_SPACING_NS
    queue.schedule(base, Event.of("disk-io", name=names[0]))
    if profile == "fleet":
        rng = random.Random(seed * 7919 + 13)
        slot = STORM_SPAN_NS // STORM_SLOTS
        for _ in range(migrations):
            victim = names[rng.randrange(len(names))]
            queue.schedule(base + 1 + rng.randrange(STORM_SLOTS) * slot,
                           Event.of("migrate", name=victim))
    else:
        for offset, name in enumerate(names, start=1):
            queue.schedule(base + offset, Event.of("migrate", name=name))
    queue.schedule(base + STORM_SPAN_NS + 1, Event.of("evacuate", host=0))
    queue.schedule(base + STORM_SPAN_NS + 2,
                   Event.of("shutdown", name=names[-1]))
    return queue


def _event_op(cloud, injectors, seed, disk_secret, event):
    """One popped event as a named workload step, ``(name, thunk)``."""
    kind, name = event.kind, event.get("name")
    if kind == "launch":
        def launch():
            cloud.launch_tenant(
                name, GuestOwner(seed=seed * 101 + event.get("index")),
                payload=_secret(seed, name), guest_frames=32)
        return "launch:" + name, launch
    if kind == "disk-io":
        def disk_io():
            tenant = cloud.tenants.get(name)
            if tenant is None:
                return
            host = cloud.host(tenant.host_index)
            encoder = host.aesni_encoder_for(tenant.ctx)
            _, frontend, _ = host.attach_disk(
                tenant.domain, tenant.ctx, sectors=64, encoder=encoder)
            injectors[tenant.host_index].arm_ring(frontend.ring)
            frontend.write(0, disk_secret)
            frontend.read(0, 1)
        return "disk-io", disk_io
    if kind == "migrate":
        def migrate():
            if name in cloud.tenants:
                cloud.migrate_tenant(name)
        return "migrate:" + name, migrate
    if kind == "evacuate":
        host = event.get("host")
        return "evacuate:%d" % host, lambda: cloud.evacuate(host)
    if kind == "shutdown":
        def shutdown():
            if name in cloud.tenants:
                cloud.shutdown_tenant(name)
        return "shutdown:" + name, shutdown
    raise ReproError("unknown soak event kind %r" % kind)


def _finish_scenario(cloud, injectors, result, secrets):
    """Final phase: faults off, the fleet must stand on its own."""
    result.schedule = schedule_bytes(injectors)
    for injector in injectors:
        injector.disarm()
    result.violations.extend(
        "final: %s" % v for v in fleet_violations(cloud, secrets))
    for tenant in cloud.tenants.values():
        try:
            tenant.ctx.hypercall(hc.HC_SCHED_YIELD)
        except ReproError as exc:
            result.violations.append(
                "final: tenant %r not re-enterable: %s" % (tenant.name, exc))
    for index, system in enumerate(cloud.hosts):
        result.violations.extend(
            "final: host %d invariant: %s" % (index, v)
            for v in check_invariants(system))
    result.survivors = len(cloud.tenants)
    return result


def run_scenario(seed, hosts=3, tenants=2, frames=1024, nfaults=4,
                 profile="classic", migrations=6, window=None):
    """One seeded scenario: build, arm, run the workload, verify.

    ``profile`` picks the schedule's migration phase (``"classic"`` or
    the ``"fleet"`` storm of ``migrations`` arrivals).  ``window`` (a
    :class:`~repro.faults.inject.FireWindow`) restricts which fault
    firings are admitted, for the bisector's fault-window search.
    """
    _scenario_params(hosts, tenants, frames, nfaults, profile, migrations)
    plan = FaultPlan.random(seed, nfaults=nfaults)
    cloud = Cloud(hosts=hosts, frames=frames, seed=0xB000 + seed)
    injectors = arm_cloud(cloud, plan, window=window)
    names = ["t%d" % i for i in range(tenants)]
    secrets = [(name, _secret(seed, name)) for name in names]
    disk_secret = _secret(seed, "disk")
    secrets.append(("disk", disk_secret))
    queue = _schedule(seed, names, profile, migrations)
    result = SoakResult(seed=seed)
    while True:
        item = queue.pop()
        if item is None:
            break
        name, op = _event_op(cloud, injectors, seed, disk_secret, item[1])
        _attempt(result, cloud, secrets, name, op)
    # The final virtual clock enters the result (and so the pinned
    # digests): a change to the schedule's timing cannot pass silently.
    result.completed_ops.append("fleet-clock:%d" % queue.now)
    return _finish_scenario(cloud, injectors, result, secrets)


# -- sweeps ----------------------------------------------------------------------


def soak_report(seeds=DEFAULT_SEEDS, jobs=1, **scenario_kwargs):
    """Run every seed through the sharded runner; returns the
    :class:`~repro.runner.executor.RunReport` (per-seed wall-clock,
    utilization, diagnostic events) with results in seed order.

    Every scenario is shared-nothing and fully seed-determined, so the
    merged results are byte-identical whatever ``jobs`` is — the
    ``parallel-equivalence`` CI job and
    ``tests/runner/test_parallel_equivalence.py`` hold us to that.
    """
    units = [WorkUnit.of(seed, run_scenario, seed, **scenario_kwargs)
             for seed in seeds]
    return execute(units, jobs=jobs)


def soak(seeds=DEFAULT_SEEDS, jobs=1, **scenario_kwargs):
    """Run every seed; returns the list of :class:`SoakResult`."""
    return soak_report(seeds, jobs=jobs, **scenario_kwargs).values()


def results_digest(results):
    """Canonical digest of a soak sweep, for serial-vs-sharded diffs."""
    return digest(results)


# -- resumable sweeps ------------------------------------------------------------


def _progress_store(checkpoint_dir):
    return CheckpointStore(os.path.join(checkpoint_dir, "progress"))


def _write_progress(store, results, next_index, params):
    payload = {"results": list(results), "next_index": next_index,
               "params": params}
    manifest = snapshot(payload, store, kind=PROGRESS_KIND, machines=[],
                        meta={"next_index": next_index})
    store.commit(manifest)


def resumable_soak(seeds, checkpoint_dir, every_seeds=5, resume=False,
                   jobs=1, sigkill_after=None, **scenario_kwargs):
    """A seed sweep that survives being killed at any instant.

    Completed-seed results are checkpointed into
    ``<checkpoint_dir>/progress`` every ``every_seeds`` seeds (0: once,
    at the end).  With ``resume=True`` the sweep continues from the
    first seed the store does not hold, and the final result list is
    byte-identical to an uninterrupted run.

    A directory that already holds progress **requires** ``resume=True``
    (fail closed: silently restarting over live checkpoints would make
    two different runs claim the same store).  ``sigkill_after`` forces
    a progress checkpoint after that many seeds and then SIGKILLs this
    process — the hook CI's resume-equivalence job interrupts with.
    """
    if every_seeds < 0:
        raise ReproError("checkpoint cadence must be at least 0 seeds, "
                         "got %d" % every_seeds)
    seeds = list(seeds)
    params = dict(_scenario_params(**scenario_kwargs), seeds=seeds)
    store = _progress_store(checkpoint_dir)
    results, start = [], 0
    manifest = store.latest()
    if manifest is not None:
        if not resume:
            raise CheckpointError(
                "checkpoint dir %r already holds soak progress; pass "
                "--resume to continue it or point at a fresh directory"
                % checkpoint_dir)
        if manifest.get("kind") != PROGRESS_KIND:
            raise CheckpointError(
                "checkpoint kind %r is not soak progress"
                % manifest.get("kind"))
        payload = restore(manifest, store, machines_of=lambda p: [])
        if payload["params"] != params:
            raise CheckpointError(
                "checkpoint parameters %r do not match this run's %r: "
                "refusing to resume" % (payload["params"], params))
        results = payload["results"]
        start = payload["next_index"]

    index = start
    while index < len(seeds):
        stop = min(len(seeds), index + every_seeds) if every_seeds \
            else len(seeds)
        if sigkill_after is not None and index < sigkill_after <= stop:
            stop = sigkill_after
        report = soak_report(seeds[index:stop], jobs=jobs,
                             **scenario_kwargs)
        results.extend(report.values())
        index = stop
        _write_progress(store, results, index, params)
        if sigkill_after is not None and index >= sigkill_after:
            os.kill(os.getpid(), signal.SIGKILL)
    return results


def main(argv=None):
    import argparse
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults.soak",
        description="chaos-soak the Fidelius fleet across seeded "
                    "fault schedules")
    parser.add_argument("--seeds", type=int_at_least(1),
                        default=len(DEFAULT_SEEDS),
                        help="number of seeds (0..N-1) to soak")
    parser.add_argument("--hosts", type=int_at_least(1), default=3)
    parser.add_argument("--tenants", type=int_at_least(1), default=2)
    parser.add_argument("--nfaults", type=int_at_least(0), default=4)
    parser.add_argument("--fleet-profile", action="store_true",
                        help="drive each scenario off a virtual-clock "
                             "event queue (migration storm with seeded "
                             "same-instant races) instead of the "
                             "classic op list")
    parser.add_argument("--fleet-migrations", type=int_at_least(0),
                        default=6, metavar="N",
                        help="storm size for --fleet-profile "
                             "(default %(default)s)")
    add_jobs_argument(parser)
    parser.add_argument("--bench-json", metavar="PATH", default=None,
                        help="also write wall-clock/shard counters and "
                             "the result digest as JSON (schema "
                             "fidelius-soak-bench/1)")
    parser.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                        help="make the soak crash-resumable: checkpoint "
                             "completed seeds under DIR")
    parser.add_argument("--resume", action="store_true",
                        help="continue from the progress already in "
                             "--checkpoint-dir")
    parser.add_argument("--checkpoint-every", type=int_at_least(0),
                        default=5, metavar="SEEDS",
                        help="progress checkpoint cadence in seeds "
                             "(default %(default)s; 0: at the end only)")
    parser.add_argument("--sigkill-after", type=int_at_least(1),
                        default=None, metavar="SEEDS",
                        help="checkpoint then SIGKILL this process after "
                             "N seeds (resume-equivalence testing)")
    args = parser.parse_args(argv)
    if args.checkpoint_dir is None:
        if args.resume:
            parser.error("--resume needs --checkpoint-dir")
        if args.sigkill_after is not None:
            parser.error("--sigkill-after needs --checkpoint-dir")
    elif args.bench_json:
        parser.error("--bench-json times an uninterrupted sweep; it "
                     "cannot be combined with --checkpoint-dir")
    scenario_kwargs = {"hosts": args.hosts, "tenants": args.tenants,
                       "nfaults": args.nfaults}
    if args.fleet_profile:
        scenario_kwargs.update(profile="fleet",
                               migrations=args.fleet_migrations)
    report = None
    if args.checkpoint_dir is not None:
        results = resumable_soak(
            range(args.seeds), args.checkpoint_dir,
            every_seeds=args.checkpoint_every, resume=args.resume,
            jobs=args.jobs, sigkill_after=args.sigkill_after,
            **scenario_kwargs)
    else:
        report = soak_report(range(args.seeds), jobs=args.jobs,
                             **scenario_kwargs)
        results = report.values()
    for result in results:
        print(result.describe())
        for violation in result.violations:
            print("  !! " + violation)
    bad = [r for r in results if not r.clean]
    print("%d/%d scenarios clean" % (len(results) - len(bad), len(results)))
    print("digest sha256=%s" % results_digest(results))
    if report is not None:
        # timing lines are diagnostics: excluded from equivalence diffs
        print("# timing: wall=%.3fs busy=%.3fs jobs=%d utilization=%.2f"
              % (report.wall_s, report.busy_s, report.jobs,
                 report.utilization()))
        if args.bench_json:
            bench = {
                "schema": "fidelius-soak-bench/1",
                "seeds": args.seeds,
                "jobs": report.jobs,
                "host_cpus": os.cpu_count() or 1,
                "wall_s": report.wall_s,
                "busy_s": report.busy_s,
                "utilization": report.utilization(),
                "clean": len(results) - len(bad),
                "digest": results_digest(results),
                "shards": report.shard_counters(),
                "sharding": report.sharding,
            }
            with open(args.bench_json, "w") as fh:
                json.dump(bench, fh, indent=2, sort_keys=True)
                fh.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
