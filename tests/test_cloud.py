"""Tests for the fleet orchestration layer and interrupt injection."""

import pytest

from repro.cloud import Cloud
from repro.common.constants import PAGE_SIZE
from repro.common.errors import ReproError
from repro.core.invariants import check_invariants
from repro.system import GuestOwner
from repro.xen import hypercalls as hc


@pytest.fixture(scope="module")
def cloud():
    return Cloud(hosts=3, frames=2048, seed=0xC10D)


class TestAttestation:
    def test_fresh_fleet_attests(self, cloud):
        assert cloud.attested_hosts() == [0, 1, 2]

    def test_tampered_host_dropped(self):
        cloud = Cloud(hosts=2, frames=2048, seed=0xBAD0)
        host1 = cloud.host(1)
        host1.machine.memory.write(
            host1.hypervisor.text.base_va + 0x600, b"\xCC\xCC")
        assert cloud.attested_hosts() == [0]
        assert cloud.pick_host() == 0

    def test_no_attested_hosts_refuses_placement(self):
        cloud = Cloud(hosts=1, frames=2048, seed=0xBAD1)
        host = cloud.host(0)
        host.machine.memory.write(
            host.hypervisor.text.base_va + 0x600, b"\xCC")
        with pytest.raises(ReproError):
            cloud.pick_host()


class TestPlacementAndMobility:
    def test_least_loaded_placement(self):
        cloud = Cloud(hosts=2, frames=2048, seed=0xC33D)
        t1 = cloud.launch_tenant("t1", GuestOwner(seed=1), payload=b"a")
        t1.ctx.hypercall(hc.HC_SCHED_YIELD)
        t2 = cloud.launch_tenant("t2", GuestOwner(seed=2), payload=b"b")
        t2.ctx.hypercall(hc.HC_SCHED_YIELD)
        assert {t1.host_index, t2.host_index} == {0, 1}

    def test_duplicate_name_rejected(self):
        cloud = Cloud(hosts=1, frames=2048, seed=0xC33E)
        cloud.launch_tenant("dup", GuestOwner(seed=1))
        with pytest.raises(ReproError):
            cloud.launch_tenant("dup", GuestOwner(seed=2))

    def test_migration_preserves_tenant_state(self):
        cloud = Cloud(hosts=2, frames=2048, seed=0xC33F)
        tenant = cloud.launch_tenant("mover", GuestOwner(seed=3),
                                     payload=b"app")
        tenant.ctx.set_page_encrypted(9)
        tenant.ctx.write(9 * PAGE_SIZE, b"tenant state")
        tenant.ctx.hypercall(hc.HC_SCHED_YIELD)
        origin = tenant.host_index
        cloud.migrate_tenant("mover", 1 - origin)
        assert tenant.host_index == 1 - origin
        assert tenant.ctx.read(9 * PAGE_SIZE, 12) == b"tenant state"
        assert cloud.inventory()[origin] == []

    def test_evacuation_drains_host(self):
        cloud = Cloud(hosts=2, frames=2048, seed=0xC340)
        for i in range(2):
            t = cloud.launch_tenant("t%d" % i, GuestOwner(seed=10 + i),
                                    host_index=0)
            t.ctx.hypercall(hc.HC_SCHED_YIELD)
        moved = cloud.evacuate(0)
        assert sorted(moved) == ["t0", "t1"]
        assert cloud.inventory() == {0: [], 1: ["t0", "t1"]}

    def test_invariants_across_fleet_operations(self):
        cloud = Cloud(hosts=2, frames=2048, seed=0xC341)
        tenant = cloud.launch_tenant("inv", GuestOwner(seed=42))
        tenant.ctx.hypercall(hc.HC_SCHED_YIELD)
        cloud.migrate_tenant("inv", 1 - tenant.host_index)
        cloud.shutdown_tenant("inv")
        for host in cloud.hosts:
            assert check_invariants(host) == []

    def test_shutdown_removes_tenant(self):
        cloud = Cloud(hosts=1, frames=2048, seed=0xC342)
        tenant = cloud.launch_tenant("gone", GuestOwner(seed=5))
        tenant.ctx.hypercall(hc.HC_SCHED_YIELD)
        cloud.shutdown_tenant("gone")
        assert "gone" not in cloud.tenants
        assert tenant.domain.domid not in \
            cloud.host(0).hypervisor.domains


class TestInterruptInjection:
    def test_injected_vector_delivered(self, cloud):
        host = cloud.host(0)
        domain, ctx = host.create_plain_guest("irq", guest_frames=16)
        ctx._ensure_guest()
        host.hypervisor.inject_interrupt(domain.vcpu0, 0x2F)
        ctx.hypercall(hc.HC_VOID)  # exit + re-entry delivers it
        assert ctx.take_interrupts() == [0x2F]
        assert ctx.take_interrupts() == []

    def test_injection_works_for_protected_guest(self, cloud):
        """event_injection is the one always-writable VMCB field: the
        shadow verification lets legitimate interrupt delivery through."""
        host = cloud.host(1)
        owner = GuestOwner(seed=0x1E0)
        domain, ctx = host.boot_protected_guest(
            "irq-prot", owner, payload=b"x", guest_frames=32)
        ctx._ensure_guest()

        def inject_during_exit(vcpu, *args):
            host.hypervisor.inject_interrupt(vcpu, 0x20)
            return hc.E_OK

        host.hypervisor.register_hypercall(210, inject_during_exit)
        ctx.hypercall(210)
        assert 0x20 in ctx.take_interrupts()
        ctx.hypercall(hc.HC_SCHED_YIELD)

    def test_bad_vector_rejected(self, cloud):
        from repro.common.errors import XenError
        host = cloud.host(0)
        domain, _ = host.create_plain_guest("irq2", guest_frames=8)
        with pytest.raises(XenError):
            host.hypervisor.inject_interrupt(domain.vcpu0, 4242)


class TestEventRingBuffer:
    def test_log_is_bounded(self):
        cloud = Cloud(hosts=1, frames=1024, seed=0xE17, event_log_limit=4)
        for i in range(10):
            cloud._record("synthetic", index=i)
        assert len(cloud.events) == 4
        assert cloud.events_recorded == 10
        assert cloud.events_dropped == 6

    def test_newest_events_survive(self):
        cloud = Cloud(hosts=1, frames=1024, seed=0xE18, event_log_limit=3)
        for i in range(7):
            cloud._record("k%d" % i)
        assert cloud.event_kinds() == ["k4", "k5", "k6"]

    def test_default_limit_keeps_small_logs_whole(self):
        cloud = Cloud(hosts=1, frames=1024, seed=0xE19)
        for i in range(5):
            cloud._record("keep", index=i)
        assert len(cloud.events) == 5
        assert cloud.events_dropped == 0
        assert cloud.events.maxlen == Cloud.DEFAULT_EVENT_LOG_LIMIT

    def test_real_events_still_recorded(self):
        cloud = Cloud(hosts=2, frames=2048, seed=0xE1A, event_log_limit=8)
        host1 = cloud.host(1)
        host1.machine.memory.write(
            host1.hypervisor.text.base_va + 0x600, b"\xCC")
        assert cloud.attested_hosts() == [0]
        assert "host-quarantined" in cloud.event_kinds()
        assert cloud.events_recorded >= 1


class TestFleetPerfStats:
    def test_aggregates_across_hosts(self):
        cloud = Cloud(hosts=2, frames=2048, seed=0xF00)
        cloud.launch_tenant("t0", GuestOwner(seed=1), payload=b"s",
                            guest_frames=32)
        stats = cloud.perf_stats()
        assert stats["hosts"] == 2
        per_host = [h.machine.perf_stats() for h in cloud.hosts]
        for key in ("hits", "misses", "evictions", "entries", "roots"):
            assert stats["tlb"][key] == sum(s["tlb"][key] for s in per_host)
        assert stats["tlb"]["root_index_entries"] == sum(
            sum(s["tlb"]["root_index_sizes"].values()) for s in per_host)

    def test_keystream_cache_reported_once_not_summed(self):
        from repro.common import crypto
        cloud = Cloud(hosts=3, frames=2048, seed=0xF01)
        assert cloud.perf_stats()["keystream_cache"] == \
            crypto.keystream_cache_stats()

    def test_event_counters_surface_in_perf_stats(self):
        cloud = Cloud(hosts=1, frames=1024, seed=0xF02, event_log_limit=4)
        for i in range(9):
            cloud._record("synthetic", index=i)
        events = cloud.perf_stats()["events"]
        assert events == {"recorded": 9, "retained": 4, "dropped": 5}


class TestLoadIndex:
    """``pick_host`` orders admissible hosts by (tenant count, index):
    after every mutation path its answer must be the head of that order
    recomputed from scratch."""

    @staticmethod
    def _rebuilt(cloud):
        counts = {i: 0 for i in range(len(cloud.hosts))}
        for tenant in cloud.tenants.values():
            counts[tenant.host_index] += 1
        return sorted((counts[i], i) for i in range(len(cloud.hosts))
                      if i not in cloud.quarantined)

    def _assert_picks_head(self, cloud):
        assert cloud.pick_host() == self._rebuilt(cloud)[0][1]

    def test_index_tracks_launch_migrate_shutdown(self):
        cloud = Cloud(hosts=3, frames=2048, seed=0x1DE0)
        self._assert_picks_head(cloud)
        for i in range(3):
            t = cloud.launch_tenant("t%d" % i, GuestOwner(seed=20 + i))
            t.ctx.hypercall(hc.HC_SCHED_YIELD)
            self._assert_picks_head(cloud)
        cloud.migrate_tenant("t0")
        self._assert_picks_head(cloud)
        cloud.shutdown_tenant("t1")
        self._assert_picks_head(cloud)

    def test_quarantined_host_leaves_the_index(self):
        cloud = Cloud(hosts=3, frames=2048, seed=0x1DE1)
        host2 = cloud.host(2)
        host2.machine.memory.write(
            host2.hypervisor.text.base_va + 0x600, b"\xCC")
        assert not cloud.attest_host(2)
        with pytest.raises(ReproError):
            cloud.pick_host(exclude={0, 1})

    def test_load_moves_while_quarantined(self):
        # a quarantined host's tenant count still moves (shutdowns of
        # residents), and the host re-enters placement with that count
        cloud = Cloud(hosts=2, frames=2048, seed=0x1DE3)
        for name, index in (("t0", 0), ("t", 1)):
            t = cloud.launch_tenant(name, GuestOwner(seed=9 + index),
                                    host_index=index)
            t.ctx.hypercall(hc.HC_SCHED_YIELD)
        cloud.quarantine_host(1)
        cloud.shutdown_tenant("t")
        assert cloud.lift_quarantine(1)
        assert cloud.pick_host() == 1          # 0 tenants beats 1
        self._assert_picks_head(cloud)

    def test_pick_host_skips_hosts_that_fail_attestation(self):
        cloud = Cloud(hosts=3, frames=2048, seed=0x1DE5)
        host0 = cloud.host(0)
        host0.machine.memory.write(
            host0.hypervisor.text.base_va + 0x600, b"\xCC")
        assert cloud.pick_host() == 1
        assert 0 in cloud.quarantined          # discovered and removed
        assert cloud.event_kinds() == ["host-quarantined"]

class TestIncrementalPerfStats:
    """``perf_stats`` re-sums every host on each call: it must equal
    the per-host sum whenever it is read, across launches and
    migrations."""

    @staticmethod
    def _assert_sums_hosts(stats, cloud):
        per_host = [h.machine.perf_stats() for h in cloud.hosts]
        for key in ("hits", "misses", "evictions", "entries", "roots"):
            assert stats["tlb"][key] == sum(s["tlb"][key] for s in per_host)
        assert stats["tlb"]["root_index_entries"] == sum(
            sum(s["tlb"]["root_index_sizes"].values()) for s in per_host)

    def test_incremental_equals_full_rewalk(self):
        cloud = Cloud(hosts=2, frames=2048, seed=0xF03)
        cloud.perf_stats()
        t = cloud.launch_tenant("t", GuestOwner(seed=4), payload=b"p",
                                guest_frames=32)
        t.ctx.hypercall(hc.HC_SCHED_YIELD)
        self._assert_sums_hosts(cloud.perf_stats(), cloud)

    def test_quiescent_fleet_answers_from_cache(self):
        cloud = Cloud(hosts=2, frames=2048, seed=0xF04)
        first = cloud.perf_stats()
        second = cloud.perf_stats()
        assert second["tlb"] == first["tlb"]

    def test_only_the_active_host_is_rewalked(self):
        cloud = Cloud(hosts=2, frames=2048, seed=0xF05)

        def idle_counters():
            return cloud.host(1).machine.perf_stats()["tlb"]

        idle_before = idle_counters()
        t = cloud.launch_tenant("t", GuestOwner(seed=5), host_index=0)
        t.ctx.hypercall(hc.HC_SCHED_YIELD)
        stats = cloud.perf_stats()
        assert idle_counters() == idle_before
        self._assert_sums_hosts(stats, cloud)

    def test_repeated_updates_stay_integer_exact(self):
        cloud = Cloud(hosts=2, frames=2048, seed=0xF06)
        for i in range(3):
            t = cloud.launch_tenant("t%d" % i, GuestOwner(seed=40 + i))
            t.ctx.hypercall(hc.HC_SCHED_YIELD)
            cloud.perf_stats()                 # interleave reads
        cloud.migrate_tenant("t0")
        self._assert_sums_hosts(cloud.perf_stats(), cloud)


class TestUnknownTenant:
    """An unknown tenant name fails closed with ReproError (the plane's
    one guest lookup), never a bare KeyError: the chaos soak's
    ``_attempt`` catches only ReproError."""

    def test_unknown_tenant_raises_repro_error(self):
        cloud = Cloud(hosts=2, frames=1024, seed=0x60A5)
        for operation in (lambda: cloud.migrate_tenant("ghost"),
                          lambda: cloud.migrate_tenant("ghost", 1),
                          lambda: cloud.shutdown_tenant("ghost")):
            with pytest.raises(ReproError, match="no guest 'ghost'"):
                operation()
        assert cloud.event_kinds() == []


class TestQuarantineLiftAudit:
    def test_rejected_lift_is_recorded(self):
        cloud = Cloud(hosts=2, frames=2048, seed=0xBAD2)
        host1 = cloud.host(1)
        host1.machine.memory.write(
            host1.hypervisor.text.base_va + 0x600, b"\xCC")
        assert not cloud.attest_host(1)
        assert not cloud.lift_quarantine(1)
        kinds = cloud.event_kinds()
        # the audit trail shows the attempt: re-quarantine + rejection
        assert kinds.count("host-quarantined") == 2
        assert kinds[-1] == "quarantine-lift-rejected"
        assert 1 in cloud.quarantined

    def test_successful_lift_still_recorded(self):
        cloud = Cloud(hosts=1, frames=1024, seed=0xBAD3)
        cloud.quarantine_host(0)
        assert cloud.lift_quarantine(0)
        assert cloud.event_kinds()[-1] == "quarantine-lifted"
        assert not cloud.quarantined
