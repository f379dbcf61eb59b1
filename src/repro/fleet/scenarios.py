"""Seed-deterministic scenario drivers over the fleet model.

One :class:`ScenarioSpec` describes a whole campaign — fleet shape,
placement policy, a live-migration storm, a correlated host-failure
wave with recovery, autoscaling, rolling fleet-wide key rotation,
shutdown churn — as a frozen, picklable value.  :func:`drive_region`
turns one spec into a drained :class:`~repro.fleet.model.FleetModel`
and a :class:`RegionReport`; it is a module-level function taking only
picklable arguments precisely so it can ride a
:class:`~repro.runner.plan.WorkUnit` (submitted by :func:`run_fleet`).

Scale comes from sharding: :func:`region_specs` splits a spec into
``regions`` independent sub-fleets (cross-region migration is not
modelled — regions are the unit of blast radius, as in real
datacenters), each with a derived seed, and :func:`run_fleet` runs
them through the persistent worker pool.  The merged reports digest
byte-identically whatever ``--jobs`` was — the same contract every
other sharded sweep in the tree honors.

All virtual times are integer nanoseconds.  Arrival processes draw
from a scenario RNG seeded separately from the model's tie-break RNG,
so the schedule (what happens when) and the race resolution (who wins
a same-instant collision) are independently reproducible.
"""

import dataclasses
import random
from dataclasses import dataclass

from repro.fleet.events import Event
from repro.fleet.model import FleetModel
from repro.runner import WorkUnit, execute
from repro.runner.merge import digest

#: virtual spans (ns) the arrival processes spread over
LAUNCH_SPAN_NS = 1_000_000_000
STORM_SPAN_NS = 1_000_000_000
RECOVERY_DELAY_NS = 200_000_000
ROTATE_STEP_NS = 100_000


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything one fleet campaign needs, as one picklable value."""

    hosts: int = 100
    guests: int = 500
    host_frames: int = 256
    guest_frames: tuple = (16, 48)
    tag_count: int = 8
    policy: str = "spread"
    seed: int = 0xF1EE7
    regions: int = 1
    region: str = "r0"
    storm_migrations: int = 0
    failure_fraction: float = 0.0
    failure_groups: int = 4
    recover: bool = True
    rotate: bool = False
    autoscale_hosts: int = 0
    churn_shutdowns: int = 0


@dataclass
class RegionReport:
    """One region's outcome: metrics, clocks, and the state digest."""

    region: str
    hosts: int
    guests_requested: int
    events: int
    clock_ns: int
    metrics: dict
    survivors: int
    digest: str


def _split(total, regions, index):
    """Deterministic near-even split of ``total`` across regions."""
    base, extra = divmod(total, regions)
    return base + (1 if index < extra else 0)


def region_specs(spec):
    """``spec`` split into per-region single-region specs.

    Each region gets a derived seed and a near-even share of hosts,
    guests, storm migrations, autoscale steps and churn; fractions
    (failure wave) apply per region.
    """
    if spec.regions < 1:
        raise ValueError("regions must be >= 1")
    out = []
    for index in range(spec.regions):
        out.append(dataclasses.replace(
            spec,
            regions=1,
            region="r%d" % index,
            seed=spec.seed * 1_000_003 + index,
            hosts=_split(spec.hosts, spec.regions, index),
            guests=_split(spec.guests, spec.regions, index),
            storm_migrations=_split(spec.storm_migrations, spec.regions,
                                    index),
            autoscale_hosts=_split(spec.autoscale_hosts, spec.regions,
                                   index),
            churn_shutdowns=_split(spec.churn_shutdowns, spec.regions,
                                   index),
        ))
    return out


def _guest_name(spec, index):
    return "%s-g%06d" % (spec.region, index)


def schedule_scenario(model, spec):
    """Load every campaign phase onto the model's event queue."""
    rng = random.Random(spec.seed ^ 0x5CEA)
    for index in range(spec.guests):
        frames = rng.randint(spec.guest_frames[0], spec.guest_frames[1])
        tag = "tag%d" % rng.randrange(max(1, spec.tag_count))
        model.queue.schedule(
            rng.randrange(LAUNCH_SPAN_NS),
            Event.of("launch", name=_guest_name(spec, index),
                     frames=frames, tags=(tag,)))
    storm_start = LAUNCH_SPAN_NS
    for _ in range(spec.storm_migrations):
        victim = _guest_name(spec, rng.randrange(max(1, spec.guests)))
        model.queue.schedule(
            storm_start + rng.randrange(STORM_SPAN_NS),
            Event.of("migrate", name=victim))
    if spec.autoscale_hosts:
        # capacity relief arrives while the storm is running...
        for index in range(spec.autoscale_hosts):
            model.queue.schedule(
                storm_start + rng.randrange(STORM_SPAN_NS // 2),
                Event.of("scale-up", hosts=1, frames=spec.host_frames))
        # ...and the extra hosts are drained and retired afterwards
        for index in range(spec.autoscale_hosts):
            model.queue.schedule(
                storm_start + 2 * STORM_SPAN_NS,
                Event.of("scale-down", host=spec.hosts + index))
    if spec.failure_fraction > 0:
        wave_time = storm_start + STORM_SPAN_NS // 2
        for host in _correlated_hosts(spec, rng):
            # one instant for the whole wave: processing order is the
            # queue's seeded tie-break, a genuinely racing failure burst
            model.queue.schedule(wave_time,
                                 Event.of("host-fail", host=host),
                                 priority=-1)
            if spec.recover:
                model.queue.schedule(
                    wave_time + RECOVERY_DELAY_NS
                    + rng.randrange(RECOVERY_DELAY_NS),
                    Event.of("host-recover", host=host))
    if spec.rotate:
        rotate_start = storm_start + STORM_SPAN_NS
        for host in range(spec.hosts):
            model.queue.schedule(rotate_start + host * ROTATE_STEP_NS,
                                 Event.of("rotate-host", host=host))
    for _ in range(spec.churn_shutdowns):
        victim = _guest_name(spec, rng.randrange(max(1, spec.guests)))
        model.queue.schedule(
            storm_start + STORM_SPAN_NS + rng.randrange(STORM_SPAN_NS),
            Event.of("shutdown", name=victim))


def _correlated_hosts(spec, rng):
    """The failure wave's victims: whole contiguous racks, so failures
    are correlated the way shared power/top-of-rack faults are."""
    want = max(1, round(spec.hosts * spec.failure_fraction))
    groups = max(1, min(spec.failure_groups, spec.hosts))
    rack_size = max(1, spec.hosts // groups)
    racks = list(range(groups))
    rng.shuffle(racks)
    victims = []
    for rack in racks:
        if len(victims) >= want:
            break
        start = rack * rack_size
        end = spec.hosts if rack == groups - 1 else start + rack_size
        victims.extend(range(start, min(end, spec.hosts)))
    return victims[:want]


def build_region(spec):
    """A populated, scheduled (but not yet run) region model."""
    model = FleetModel(hosts=spec.hosts, host_frames=spec.host_frames,
                       seed=spec.seed, policy=spec.policy)
    schedule_scenario(model, spec)
    return model


def drive_region(spec):
    """Run one region to completion; the WorkUnit target."""
    model = build_region(spec)
    events = model.run()
    survivors = sum(1 for g in model.guests.values()
                    if g.state == "RUNNING")
    return RegionReport(
        region=spec.region,
        hosts=len(model.hosts),
        guests_requested=spec.guests,
        events=events,
        clock_ns=model.queue.now,
        metrics=dict(model.metrics),
        survivors=survivors,
        digest=model.state_digest(),
    )


def summarize(reports):
    """Fleet-level totals plus the canonical cross-region digest."""
    totals = {}
    for report in reports:
        for key, value in report.metrics.items():
            totals[key] = totals.get(key, 0) + value
    return {
        "regions": len(reports),
        "hosts": sum(r.hosts for r in reports),
        "guests_requested": sum(r.guests_requested for r in reports),
        "survivors": sum(r.survivors for r in reports),
        "events": sum(r.events for r in reports),
        "virtual_ns": max((r.clock_ns for r in reports), default=0),
        "metrics": totals,
        "digest": digest(reports),
    }


def run_fleet(spec, jobs=1):
    """Shard a multi-region spec through the runner and merge.

    Returns ``(run_report, region_reports, summary)``; the summary's
    ``digest`` is byte-identical whatever ``jobs`` was.
    """
    units = [WorkUnit.of(region.region, drive_region, region)
             for region in region_specs(spec)]
    run_report = execute(units, jobs=jobs)
    reports = run_report.values()
    return run_report, reports, summarize(reports)
