"""Fleet-scale benchmark: 10k hosts / 50k guests in bounded time/memory.

Everything else under ``repro.eval`` measures either the modelled
machine (cycles) or the simulator's data path (seconds per operation);
this module measures the *fleet model's* capacity: how many hosts and
guests the discrete-event core (:mod:`repro.fleet`) can carry through a
full campaign — launch wave, 1k-migration storm, 5% correlated failure
wave with recovery, rolling fleet-wide key rotation, shutdown churn —
and at what events/second and peak RSS.

``python -m repro.eval.fleetbench --profile full --json`` writes
``BENCH_fleet.json`` (schema ``fidelius-fleetbench/1``).  The model
charges its operations in simulated cycles from one fixed table
(:attr:`~repro.fleet.model.FleetModel.CYCLES`, the report's ``costs``);
every run also drives the 3-host lockstep differential against the real
``Cloud``, which holds each charge equal to the real hosts' cycle
delta.  The report splits cleanly along the determinism contract:

* everything *modelled* — the scenario spec, the cycle table,
  per-region outcomes, fleet totals, the cross-region state digest, and
  the lockstep's outcome — is byte-identical across ``--jobs`` settings
  and machines (:func:`deterministic_digest` is the comparison key CI
  holds serial and sharded runs to);
* everything *measured* — wall seconds, events/second, peak RSS, the
  executor breakdown — lives in the ``sharding`` section, which
  :func:`repro.runner.merge.strip_timing` removes before digesting.

``--check`` exits non-zero when the profile's wall-clock or RSS target
is missed or the lockstep diverged, so the CI smoke job is a real gate,
not a plot.
"""

import argparse
import json
import os
import resource
import sys
# fidelint: ignore[FID007] -- this module measures host wall-clock
# (fleet-model throughput, never modelled time); every modelled
# quantity comes from the virtual clock and the seeded RNGs.
import time

from repro.fleet import FleetModel, ScenarioSpec, run_fleet
from repro.fleet.lockstep import run_lockstep
from repro.fleet.scenarios import FAILURE_GROUPS, GUEST_FRAMES, HOST_FRAMES
from repro.runner import add_jobs_argument
from repro.runner import merge as runner_merge

SCHEMA = "fidelius-fleetbench/1"
DEFAULT_OUTPUT = "BENCH_fleet.json"

#: campaign shapes; ``smoke`` is the CI profile, ``full`` the committed
#: 10k-host / 50k-guest artifact (ROADMAP item 2's acceptance numbers)
PROFILES = {
    "smoke": ScenarioSpec(
        hosts=200, guests=1_000, regions=4,
        storm_migrations=100, failure_fraction=0.05,
        autoscale_hosts=4, churn_shutdowns=100),
    "full": ScenarioSpec(
        hosts=10_000, guests=50_000, regions=20,
        storm_migrations=1_000, failure_fraction=0.05,
        autoscale_hosts=20, churn_shutdowns=1_000),
}

#: acceptance targets per profile: (max wall seconds, max peak RSS MiB)
TARGETS = {
    "smoke": (30.0, 1024),
    "full": (60.0, 2048),
}


def _peak_rss_mib():
    """Peak RSS over this process and its (reaped) workers, in MiB.

    ``ru_maxrss`` is KiB on Linux; RUSAGE_CHILDREN covers worker
    processes the executor has already joined.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _spec_dict(spec):
    """The spec's fields plus the campaign constants every spec shares
    (a failure wave always recovers, and every host's keys rotate)."""
    return {
        "hosts": spec.hosts,
        "guests": spec.guests,
        "regions": spec.regions,
        "seed": spec.seed,
        "host_frames": HOST_FRAMES,
        "guest_frames": list(GUEST_FRAMES),
        "storm_migrations": spec.storm_migrations,
        "failure_fraction": spec.failure_fraction,
        "failure_groups": FAILURE_GROUPS,
        "recover": True,
        "rotate": True,
        "autoscale_hosts": spec.autoscale_hosts,
        "churn_shutdowns": spec.churn_shutdowns,
    }


def run_profile(profile, jobs=1):
    """Run one named profile end to end and assemble the report."""
    try:
        spec = PROFILES[profile]
    except KeyError:
        raise ValueError("unknown profile %r (have: %s)"
                         % (profile, ", ".join(sorted(PROFILES))))
    started = time.perf_counter()
    run_report, regions, summary = run_fleet(spec, jobs=jobs)
    wall_s = time.perf_counter() - started
    max_wall, max_rss = TARGETS[profile]
    pool = run_report.sharding
    return {
        "schema": SCHEMA,
        "profile": profile,
        "spec": _spec_dict(spec),
        "costs": {kind: list(pair)
                  for kind, pair in FleetModel.CYCLES.items()},
        "fleet": summary,
        "regions": [
            {"region": r.region, "hosts": r.hosts, "events": r.events,
             "survivors": r.survivors, "clock_ns": r.clock_ns,
             "digest": r.digest}
            for r in regions
        ],
        "lockstep": run_lockstep().asdict(),
        "targets": {"max_wall_s": max_wall, "max_rss_mib": max_rss},
        "sharding": {
            "jobs": run_report.jobs,
            "host_cpus": os.cpu_count() or 1,
            "wall_s": wall_s,
            "busy_s": run_report.busy_s,
            "utilization": run_report.utilization(),
            "events_per_s": summary["events"] / wall_s if wall_s else 0.0,
            "peak_rss_mib": _peak_rss_mib(),
            "mode": pool["mode"],
            "workers_spawned": pool["workers_spawned"],
            "shards": run_report.shard_counters(),
        },
    }


def deterministic_digest(report):
    """Digest of the report minus measured fields — equal across
    ``--jobs`` settings and machines iff the modelled fleet is."""
    return runner_merge.deterministic_digest(report)


def check_targets(report):
    """Target misses as human-readable strings (empty == pass)."""
    sharding = report["sharding"]
    targets = report["targets"]
    problems = []
    if sharding["wall_s"] > targets["max_wall_s"]:
        problems.append("wall %.1fs exceeds %.1fs target"
                        % (sharding["wall_s"], targets["max_wall_s"]))
    if sharding["peak_rss_mib"] > targets["max_rss_mib"]:
        problems.append("peak RSS %.0f MiB exceeds %d MiB target"
                        % (sharding["peak_rss_mib"],
                           targets["max_rss_mib"]))
    lockstep = report["lockstep"]
    if not lockstep["ok"]:
        problems.append("lockstep differential diverged: %s"
                        % "; ".join(lockstep["mismatches"]))
    return problems


def format_report(report):
    fleet = report["fleet"]
    sharding = report["sharding"]
    lines = [
        "Fleet benchmark (%s profile)" % report["profile"],
        "  fleet: %d hosts, %d guests requested, %d survivors, "
        "%d regions" % (fleet["hosts"], fleet["guests_requested"],
                        fleet["survivors"], fleet["regions"]),
        "  events: %d processed, %.2f virtual s modelled" % (
            fleet["events"], fleet["virtual_ns"] / 1e9),
        "  measured: %.2fs wall, %.0f events/s, %.0f MiB peak RSS, "
        "jobs=%d" % (sharding["wall_s"], sharding["events_per_s"],
                     sharding["peak_rss_mib"], sharding["jobs"]),
        "  digest: %s" % fleet["digest"],
        "  lockstep vs real Cloud: %s (%d launches, %d migrations)" % (
            "OK" if report["lockstep"]["ok"] else "DIVERGED",
            report["lockstep"]["launches"],
            report["lockstep"]["migrations"]),
    ]
    problems = check_targets(report)
    lines.append("  targets: %s"
                 % ("PASS" if not problems else "; ".join(problems)))
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval.fleetbench",
        description="Benchmark the discrete-event fleet core at "
                    "datacenter population sizes.")
    parser.add_argument("--profile", choices=sorted(PROFILES),
                        default="smoke",
                        help="campaign shape (default %(default)s)")
    parser.add_argument("--json", action="store_true",
                        help="write %s and print the JSON" % DEFAULT_OUTPUT)
    parser.add_argument("--out", default=DEFAULT_OUTPUT,
                        help="output path for --json (default %(default)s)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero if a wall/RSS target is "
                             "missed or the lockstep diverged")
    add_jobs_argument(parser)
    args = parser.parse_args(argv)
    report = run_profile(args.profile, jobs=args.jobs)
    if args.json:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_report(report))
    if args.check:
        problems = check_targets(report)
        if problems:
            print("fleetbench: FAIL: %s" % "; ".join(problems),
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
