"""Fail-closed fleet orchestration under injected faults."""

import pytest

from repro.common.errors import ReproError, SevError
from repro.core.invariants import check_invariants
from repro.faults.inject import HostInjector, arm_system
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.soak import fleet_violations
from repro.cloud import Cloud
from repro.system import GuestOwner
from repro.xen import hypercalls as hc


def _cloud(hosts=3):
    return Cloud(hosts=hosts, frames=2048, seed=0xC1F0)


def _launch(cloud, name, host_index, seed=5):
    return cloud.launch_tenant(name, GuestOwner(seed=seed), payload=b"pp",
                               guest_frames=16, host_index=host_index)


def _fail_next_receive(cloud, host_index):
    plan = FaultPlan([FaultSpec("firmware.receive_finish", "error", nth=1)])
    return arm_system(cloud.host(host_index), plan,
                      label="host%d" % host_index)


class TestMigrateRetry:
    def test_auto_destination_retries_past_a_bad_target(self):
        cloud = _cloud()
        _launch(cloud, "t", host_index=0)
        injector = _fail_next_receive(cloud, 1)
        tenant = cloud.migrate_tenant("t")
        injector.disarm()
        # Host 1 (least loaded, first candidate) failed; the retry loop
        # excluded it and landed the tenant on host 2.
        assert tenant.host_index == 2
        assert "migrate-failed" in cloud.event_kinds()
        assert fleet_violations(cloud, []) == []
        tenant.ctx.hypercall(hc.HC_SCHED_YIELD)

    def test_all_targets_failing_leaves_tenant_on_source(self):
        cloud = _cloud()
        _launch(cloud, "t", host_index=0)
        plan = FaultPlan([
            FaultSpec("firmware.receive_start", "error", probability=1.0,
                      count=99)])
        injectors = [arm_system(cloud.host(i), plan, label="host%d" % i)
                     for i in (1, 2)]
        with pytest.raises(SevError):
            cloud.migrate_tenant("t")
        for injector in injectors:
            injector.disarm()
        assert cloud.tenants["t"].host_index == 0
        assert fleet_violations(cloud, []) == []
        assert cloud.event_kinds().count("migrate-failed") >= 2

    def test_explicit_destination_is_a_single_fail_closed_attempt(self):
        cloud = _cloud()
        _launch(cloud, "t", host_index=0)
        injector = _fail_next_receive(cloud, 1)
        with pytest.raises(SevError):
            cloud.migrate_tenant("t", to_host_index=1)
        injector.disarm()
        assert cloud.tenants["t"].host_index == 0


class TestQuarantine:
    def test_bad_quotes_quarantine_the_host_mid_operation(self):
        cloud = _cloud()
        _launch(cloud, "t", host_index=0)
        plan = FaultPlan([
            FaultSpec("attest.quote", "garbage", probability=1.0, count=99)])
        injector = HostInjector(plan, cloud.host(1).machine, label="host1")
        injector.arm_attestation(cloud.authority(1))
        tenant = cloud.migrate_tenant("t")
        # The garbage-quoting host never entered the candidate pool.
        assert tenant.host_index == 2
        assert 1 in cloud.quarantined
        assert "host-quarantined" in cloud.event_kinds()
        injector.disarm()

    def test_quarantine_is_sticky_until_an_operator_lifts_it(self):
        cloud = _cloud()
        plan = FaultPlan([FaultSpec("attest.quote", "stale", nth=1)])
        injector = HostInjector(plan, cloud.host(1).machine, label="host1")
        injector.arm_attestation(cloud.authority(1))
        assert not cloud.attest_host(1)
        injector.disarm()
        # Quotes are clean again, but the host stays out of the pool.
        assert not cloud.attest_host(1)
        assert cloud.attested_hosts() == [0, 2]
        assert cloud.lift_quarantine(1)
        assert cloud.attested_hosts() == [0, 1, 2]
        assert "quarantine-lifted" in cloud.event_kinds()

    def test_launch_refuses_a_quarantined_host(self):
        cloud = _cloud()
        cloud.quarantine_host(1)
        with pytest.raises(ReproError, match="fails attestation"):
            _launch(cloud, "t", host_index=1)
        assert "t" not in cloud.tenants


class TestEvacuate:
    def test_evacuate_with_one_injected_failure_places_each_tenant_once(self):
        cloud = _cloud()
        _launch(cloud, "a", host_index=0, seed=5)
        _launch(cloud, "b", host_index=0, seed=6)
        injector = _fail_next_receive(cloud, 1)
        moved = cloud.evacuate(0)
        injector.disarm()
        assert sorted(moved) == ["a", "b"]
        assert cloud.inventory()[0] == []
        # The acceptance bar: despite the mid-drain failure, every
        # tenant ended up on exactly one host, exactly once.
        assert fleet_violations(cloud, []) == []
        assert "migrate-failed" in cloud.event_kinds()
        for host in cloud.hosts:
            assert check_invariants(host) == []

    def test_evacuate_with_no_viable_target_stalls_closed(self):
        cloud = _cloud(hosts=2)
        _launch(cloud, "a", host_index=0)
        plan = FaultPlan([
            FaultSpec("firmware.receive_start", "error", probability=1.0,
                      count=99)])
        injector = arm_system(cloud.host(1), plan, label="host1")
        with pytest.raises(ReproError):
            cloud.evacuate(0)
        injector.disarm()
        assert cloud.tenants["a"].host_index == 0
        assert "evacuation-stalled" in cloud.event_kinds()
        assert fleet_violations(cloud, []) == []


class TestShutdown:
    def test_failed_destroy_keeps_the_tenant_registered(self):
        cloud = _cloud(hosts=1)
        _launch(cloud, "t", host_index=0)
        hypervisor = cloud.host(0).hypervisor
        real_destroy = hypervisor.destroy_domain

        def broken_destroy(domain):
            raise ReproError("injected destroy failure")

        hypervisor.destroy_domain = broken_destroy
        try:
            with pytest.raises(ReproError):
                cloud.shutdown_tenant("t")
            # Fail closed: the control plane has not forgotten a tenant
            # whose domain still exists.
            assert "t" in cloud.tenants
        finally:
            hypervisor.destroy_domain = real_destroy
        cloud.shutdown_tenant("t")
        assert "t" not in cloud.tenants
        assert fleet_violations(cloud, []) == []
