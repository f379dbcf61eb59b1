"""Tests for the full VM life cycle (Section 4.3): encrypted-image
preparation, secure boot, shutdown."""

import pytest

from repro.common.constants import PAGE_SIZE
from repro.common.errors import ReproError, SevError
from repro.core.lifecycle import (
    KERNEL_MAGIC,
    GuestOwner,
    read_embedded_kblk,
    read_kernel_payload,
)
from repro.sev.state import GuestState
from repro.system import System


class TestImagePreparation:
    def test_kernel_layout(self, owner):
        kernel = owner.build_kernel(b"payload bytes")
        assert kernel.startswith(KERNEL_MAGIC)
        assert owner.kblk in kernel
        assert len(kernel) % PAGE_SIZE == 0

    def test_image_is_ciphertext(self, owner, system):
        image = owner.prepare_encrypted_image(
            b"super secret app", system.firmware.platform_public_key)
        blob = b"".join(record for _, record in image.records)
        assert b"super secret app" not in blob
        assert owner.kblk not in blob

    def test_image_sealed_to_one_machine(self, owner):
        """The Section 8 limitation: an image prepared for machine A
        cannot boot on machine B (its firmware cannot unwrap the keys)."""
        sys_a = System.create(fidelius=True, frames=1024, seed=1)
        sys_b = System.create(fidelius=True, frames=1024, seed=2)
        image = owner.prepare_encrypted_image(
            b"app", sys_a.firmware.platform_public_key)
        with pytest.raises(SevError):
            with sys_b.fidelius.gates.firmware_gate():
                sys_b.firmware.receive_start(
                    image.kwrap, image.origin_public, image.nonce)

    def test_disk_image_encryption(self, owner):
        disk = owner.encrypt_disk_image(b"filesystem contents here")
        assert b"filesystem" not in disk
        assert len(disk) % 512 == 0


class TestProtectedBoot:
    def test_guest_reads_its_kernel(self, protected_guest):
        _, ctx = protected_guest
        assert ctx.read(0, len(KERNEL_MAGIC)) == KERNEL_MAGIC
        assert read_kernel_payload(ctx, 25) == b"guest application payload"

    def test_kblk_recoverable_only_in_guest(self, system, owner,
                                            protected_guest):
        domain, ctx = protected_guest
        assert read_embedded_kblk(ctx) == owner.kblk
        # the host's raw memory never holds K_blk
        dump = system.machine.cold_boot_dump()
        assert all(owner.kblk not in frame for frame in dump.values())

    def test_kernel_pages_marked_encrypted(self, protected_guest):
        domain, _ = protected_guest
        assert 0 in domain.encrypted_gfns

    def test_domain_enrolled(self, system, protected_guest):
        domain, _ = protected_guest
        assert domain in system.fidelius.protected_domains

    def test_guest_smaller_than_image_rejected(self, system, owner):
        with pytest.raises(ReproError):
            system.boot_protected_guest("tiny", owner, payload=b"x",
                                        guest_frames=0)

    def test_tampered_load_fails_measurement(self, system, owner):
        """The hypervisor's one write window (loading the image) is
        covered by the RECEIVE measurement (Section 6.2)."""
        def tamper(machine, domain):
            pa = system.hypervisor.guest_frame_hpfn(domain, 0) * PAGE_SIZE
            machine.memctrl.dma_write(pa + 100, b"\xFF\xFF\xFF\xFF")

        with pytest.raises(SevError):
            system.boot_protected_guest("evil", owner, payload=b"x",
                                        guest_frames=32, tamper=tamper)
        assert "boot-integrity-failure" in system.fidelius.audit_kinds()

    def test_boot_records_sev_metadata(self, system, protected_guest):
        domain, _ = protected_guest
        meta = system.fidelius.sev_meta[domain.domid]
        assert meta["handle"] == domain.sev_handle
        assert meta["asid"] == domain.asid


class TestShutdown:
    def test_shutdown_scrubs_and_decommissions(self, system,
                                               protected_guest):
        domain, ctx = protected_guest
        ctx.set_page_encrypted(5)
        ctx.write(5 * PAGE_SIZE, b"dying secret")
        from repro.xen import hypercalls as hc
        handle = domain.sev_handle
        hpfn = system.hypervisor.guest_frame_hpfn(domain, 5)
        ctx.hypercall(hc.HC_SHUTDOWN)
        # context erased in the firmware
        assert handle not in system.firmware.handles()
        # frame scrubbed
        assert system.machine.memory.read_frame(hpfn) == bytes(PAGE_SIZE)
        # bookkeeping cleaned
        assert domain.domid not in system.fidelius.sev_meta
        assert domain not in system.fidelius.protected_domains
        assert "domain-shutdown" in system.fidelius.audit_kinds()

    def test_each_destroyed_domain_is_swept_from_the_git_once(
            self, system, protected_guest, monkeypatch):
        """The destroy hook sweeps an unprotected domain; a protected
        one is swept by ``shutdown_guest`` alone."""
        from repro.xen import hypercalls as hc
        domain, ctx = protected_guest
        peer, _ = system.create_plain_guest("peer", guest_frames=16)
        git = system.fidelius.git
        sweeps = []
        sweep = git.remove_for_domain

        def counting_sweep(domid):
            sweeps.append(domid)
            return sweep(domid)

        monkeypatch.setattr(git, "remove_for_domain", counting_sweep)
        assert ctx.hypercall(hc.HC_PRE_SHARING, peer.domid, 4, 1, 0) \
            == hc.E_OK
        ctx.hypercall(hc.HC_SCHED_YIELD)
        system.hypervisor.destroy_domain(peer)
        assert sweeps == [peer.domid]
        assert git.entries_for(domain.domid) == []
        assert ctx.hypercall(hc.HC_PRE_SHARING, 0, 4, 1, 0) == hc.E_OK
        ctx.hypercall(hc.HC_SCHED_YIELD)
        system.hypervisor.destroy_domain(domain)
        assert sweeps == [peer.domid, domain.domid]
        assert all(entry is None for _, entry in git.slots())

    def test_pit_entries_invalidated(self, system, protected_guest):
        domain, ctx = protected_guest
        from repro.xen import hypercalls as hc
        hpfn = system.hypervisor.guest_frame_hpfn(domain, 3)
        ctx.hypercall(hc.HC_SHUTDOWN)
        assert not system.fidelius.pit.lookup(hpfn).valid
