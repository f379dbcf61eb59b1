"""Crash-safe, fail-closed migration under injected firmware faults."""

import dataclasses

import pytest

from repro.common.errors import SevError
from repro.core import migration
from repro.core.invariants import check_invariants
from repro.core.migration import migrate_guest, receive_guest, send_guest
from repro.faults.inject import arm_system
from repro.faults.plan import FaultPlan, FaultSpec
from repro.sev.state import GuestState
from repro.system import GuestOwner, paired_systems
from repro.xen import hypercalls as hc


@pytest.fixture
def pair():
    return paired_systems(frames=2048, seed=0xFA17)


def _boot(system, name="mig", seed=11):
    owner = GuestOwner(seed=seed)
    return system.boot_protected_guest(name, owner, payload=b"precious",
                                       guest_frames=24)


def _plan(site):
    return FaultPlan([FaultSpec(site, "error", nth=1)])


def _names(system):
    return [d.name for d in system.hypervisor.domains.values()]


class TestTwoPhaseMigration:
    def test_receive_failure_leaves_source_intact_and_reenterable(self, pair):
        source, target = pair
        domain, ctx = _boot(source)
        injector = arm_system(target, _plan("firmware.receive_finish"),
                              label="target")
        with pytest.raises(SevError, match="injected failure"):
            migrate_guest(source.fidelius, domain, target.fidelius)
        injector.disarm()

        # Fail closed: the tenant still lives on the source, RUNNING,
        # and its next VMRUN passes the gate.
        assert domain.domid in source.hypervisor.domains
        assert source.firmware.guest_state(domain.sev_handle) \
            is GuestState.RUNNING
        ctx.hypercall(hc.HC_SCHED_YIELD)
        # The target rolled its half-built domain all the way back.
        assert "mig" not in _names(target)
        assert check_invariants(target) == []
        assert "migration-cancelled" in source.fidelius.audit_kinds()
        assert "migration-receive-failed" in target.fidelius.audit_kinds()

    def test_activate_failure_also_rolls_back(self, pair):
        source, target = pair
        domain, ctx = _boot(source)
        injector = arm_system(target, _plan("firmware.activate"),
                              label="target")
        with pytest.raises(SevError, match="injected failure"):
            migrate_guest(source.fidelius, domain, target.fidelius)
        injector.disarm()
        assert "mig" not in _names(target)
        assert check_invariants(target) == []
        ctx.hypercall(hc.HC_SCHED_YIELD)

    def test_send_failure_cancels_and_guest_resumes(self, pair):
        source, target = pair
        domain, ctx = _boot(source)
        injector = arm_system(source, _plan("firmware.send_update"),
                              label="source")
        with pytest.raises(SevError, match="injected failure"):
            migrate_guest(source.fidelius, domain, target.fidelius)
        injector.disarm()
        assert source.firmware.guest_state(domain.sev_handle) \
            is GuestState.RUNNING
        ctx.hypercall(hc.HC_SCHED_YIELD)
        assert "migration-send-failed" in source.fidelius.audit_kinds()
        # Nothing ever reached the target.
        assert "mig" not in _names(target)

    def test_successful_migration_still_tears_down_source(self, pair):
        source, target = pair
        domain, _ = _boot(source)
        new_domain, new_ctx = migrate_guest(source.fidelius, domain,
                                            target.fidelius)
        assert domain.domid not in source.hypervisor.domains
        assert new_domain.domid in target.hypervisor.domains
        new_ctx.hypercall(hc.HC_SCHED_YIELD)
        assert check_invariants(source) == []
        assert check_invariants(target) == []

    def test_failed_then_retried_migration_succeeds(self, pair):
        source, target = pair
        domain, _ = _boot(source)
        injector = arm_system(target, _plan("firmware.receive_update"),
                              label="target")
        with pytest.raises(SevError):
            migrate_guest(source.fidelius, domain, target.fidelius)
        injector.disarm()
        # The cancelled source can immediately migrate again.
        new_domain, new_ctx = migrate_guest(source.fidelius, domain,
                                            target.fidelius)
        assert new_domain.domid in target.hypervisor.domains
        new_ctx.hypercall(hc.HC_SCHED_YIELD)


class TestInvalidOriginPublic:
    """The hypervisor relays the package, so the origin's DH public value
    reaches RECEIVE_START unchecked; an invalid one must fail closed
    through the same rollbacks as any other firmware error."""

    def test_receive_rolls_back_the_half_built_domain(self, pair):
        source, target = pair
        domain, _ = _boot(source)
        package = send_guest(source.fidelius, domain,
                             target.fidelius.firmware.platform_public_key)
        package = dataclasses.replace(package, origin_public=1)
        before = dict(target.hypervisor.domains)
        with pytest.raises(SevError, match="invalid DH public value"):
            receive_guest(target.fidelius, package)
        assert target.hypervisor.domains == before
        assert check_invariants(target) == []
        assert "migration-receive-failed" in target.fidelius.audit_kinds()

    def test_migration_cancels_the_send(self, pair, monkeypatch):
        source, target = pair
        domain, ctx = _boot(source)
        honest_send = migration.send_guest

        def relay_with_bad_origin(*args):
            package = honest_send(*args)
            return dataclasses.replace(package, origin_public=1)

        monkeypatch.setattr(migration, "send_guest", relay_with_bad_origin)
        with pytest.raises(SevError, match="invalid DH public value"):
            migrate_guest(source.fidelius, domain, target.fidelius)
        assert source.firmware.guest_state(domain.sev_handle) \
            is GuestState.RUNNING
        ctx.hypercall(hc.HC_SCHED_YIELD)
        assert "mig" not in _names(target)
        assert check_invariants(source) == []
        assert check_invariants(target) == []
        assert "migration-cancelled" in source.fidelius.audit_kinds()


class TestIdempotentReceive:
    def test_replayed_package_does_not_duplicate_the_domain(self, pair):
        source, target = pair
        domain, _ = _boot(source)
        package = send_guest(source.fidelius, domain,
                             target.fidelius.firmware.platform_public_key)
        first_domain, _ = receive_guest(target.fidelius, package)
        replay_domain, _ = receive_guest(target.fidelius, package)
        assert replay_domain is first_domain
        assert _names(target).count("mig") == 1
        assert "migration-replay-ignored" in target.fidelius.audit_kinds()
        assert check_invariants(target) == []

    def test_reimport_allowed_after_the_first_incarnation_dies(self, pair):
        source, target = pair
        domain, _ = _boot(source)
        package = send_guest(source.fidelius, domain,
                             target.fidelius.firmware.platform_public_key)
        first_domain, _ = receive_guest(target.fidelius, package)
        target.hypervisor.destroy_domain(first_domain)
        second_domain, ctx = receive_guest(target.fidelius, package)
        assert second_domain.domid != first_domain.domid
        ctx.hypercall(hc.HC_SCHED_YIELD)
        assert _names(target).count("mig") == 1

    def test_failed_receive_is_not_registered_as_an_import(self, pair):
        source, target = pair
        domain, _ = _boot(source)
        package = send_guest(source.fidelius, domain,
                             target.fidelius.firmware.platform_public_key)
        injector = arm_system(target, _plan("firmware.receive_finish"),
                              label="target")
        with pytest.raises(SevError):
            receive_guest(target.fidelius, package)
        injector.disarm()
        assert package.import_key() not in target.fidelius.received_imports
        # The real import afterwards works and registers.
        receive_guest(target.fidelius, package)
        assert package.import_key() in target.fidelius.received_imports


class TestBootRollback:
    def test_injected_activate_failure_leaves_no_half_built_guest(self):
        from repro.system import System
        system = System.create(fidelius=True, frames=2048, seed=0xB007)
        injector = arm_system(system, _plan("firmware.activate"))
        with pytest.raises(SevError, match="injected failure"):
            system.boot_protected_guest("half", GuestOwner(seed=3),
                                        payload=b"x", guest_frames=16)
        injector.disarm()
        assert "half" not in _names(system)
        assert check_invariants(system) == []
        assert "boot-integrity-failure" in system.fidelius.audit_kinds()
        # The host is not poisoned: the same image boots fine now.
        system.boot_protected_guest("half", GuestOwner(seed=3),
                                    payload=b"x", guest_frames=16)
