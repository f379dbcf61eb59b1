"""Scenario drivers: region splitting, determinism, sharded digests.

The contract under test is the one CI's fleet-equivalence job holds
the benchmark to: a multi-region campaign digests byte-identically
whatever ``--jobs`` was, because regions are independent seeded shards
merged in deterministic order.
"""

import dataclasses

from repro.fleet.scenarios import (
    ScenarioSpec,
    build_region,
    drive_region,
    region_specs,
    run_fleet,
    summarize,
)

#: small but fully-featured campaign: storm, failure wave + recovery,
#: autoscale burst, rolling rotation, shutdown churn
SPEC = ScenarioSpec(hosts=12, guests=60, regions=3, policy="spread",
                    storm_migrations=20, failure_fraction=0.1,
                    rotate=True, autoscale_hosts=3, churn_shutdowns=10,
                    seed=0xBEEF)


class TestRegionSplit:
    def test_split_conserves_totals(self):
        regions = region_specs(SPEC)
        assert len(regions) == 3
        assert sum(r.hosts for r in regions) == SPEC.hosts
        assert sum(r.guests for r in regions) == SPEC.guests
        assert sum(r.storm_migrations for r in regions) == \
            SPEC.storm_migrations
        assert sum(r.autoscale_hosts for r in regions) == \
            SPEC.autoscale_hosts
        assert sum(r.churn_shutdowns for r in regions) == \
            SPEC.churn_shutdowns

    def test_regions_get_distinct_seeds_and_names(self):
        regions = region_specs(SPEC)
        assert len({r.seed for r in regions}) == 3
        assert [r.region for r in regions] == ["r0", "r1", "r2"]
        assert all(r.regions == 1 for r in regions)

    def test_uneven_split_front_loads_the_remainder(self):
        spec = dataclasses.replace(SPEC, hosts=10, guests=7, regions=3)
        regions = region_specs(spec)
        assert [r.hosts for r in regions] == [4, 3, 3]
        assert [r.guests for r in regions] == [3, 2, 2]


class TestDriveRegion:
    def test_same_spec_reproduces_byte_for_byte(self):
        spec = region_specs(SPEC)[0]
        first, second = drive_region(spec), drive_region(spec)
        assert first == second
        assert first.digest == second.digest

    def test_different_seeds_diverge(self):
        base = region_specs(SPEC)[0]
        other = dataclasses.replace(base, seed=base.seed + 1)
        assert drive_region(base).digest != drive_region(other).digest

    def test_campaign_phases_all_fire(self):
        report = drive_region(region_specs(SPEC)[0])
        metrics = report.metrics
        assert metrics["launches"] > 0
        assert metrics["failures"] > 0
        assert metrics["recoveries"] == metrics["failures"]
        assert metrics["rotations"] > 0
        assert metrics["shutdowns"] > 0
        assert metrics["scale_ups"] == 1
        assert metrics["retired"] == 1
        assert report.events == metrics_events_lower_bound(metrics)

    def test_survivor_accounting_closes(self):
        report = drive_region(region_specs(SPEC)[0])
        m = report.metrics
        assert report.survivors == \
            m["launches"] - m["shutdowns"] - m["lost_guests"]

    def test_virtual_clock_advances_monotonically(self):
        model = build_region(region_specs(SPEC)[0])
        last = 0
        while True:
            item = model.queue.pop()
            if item is None:
                break
            when, event = item
            assert when >= last
            last = when
            model.dispatch(event)
        assert model.queue.now == last > 0


def metrics_events_lower_bound(metrics):
    """Every processed event shows up in exactly one counter (launch,
    migrate, shutdown, fail, recover, rotate, scale, evacuate/retire)
    or the rejected tally — the sum reconstructs the event count."""
    return (metrics["launches"] + metrics["migrations"]
            - metrics["evacuated"]          # evacuations ride retire
            + metrics["shutdowns"] + metrics["failures"]
            + metrics["recoveries"] + metrics["rotations"]
            + metrics["scale_ups"] + metrics["retired"]
            + metrics["rejected"])


class TestShardedFleet:
    def test_serial_and_sharded_runs_digest_identically(self):
        _run1, _reports1, serial = run_fleet(SPEC, jobs=1)
        _run2, _reports2, sharded = run_fleet(SPEC, jobs=2)
        assert serial["digest"] == sharded["digest"]
        assert serial == sharded

    def test_summary_totals_match_reports(self):
        _run, reports, summary = run_fleet(SPEC, jobs=1)
        assert summary["regions"] == len(reports) == 3
        assert summary["hosts"] == sum(r.hosts for r in reports)
        assert summary["events"] == sum(r.events for r in reports)
        assert summary["virtual_ns"] == max(r.clock_ns for r in reports)
        for key in ("launches", "migrations", "failures"):
            assert summary["metrics"][key] == \
                sum(r.metrics[key] for r in reports)
