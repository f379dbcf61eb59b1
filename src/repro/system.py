"""The assembled stack: machine + SEV firmware + Xen (+ Fidelius).

This is the top of the public API.  ``System.create(fidelius=True)``
boots the full paper configuration; ``fidelius=False`` boots the
baseline SEV-only Xen the security evaluation attacks succeed against.
"""

from repro.common.errors import ReproError
from repro.core.fidelius import Fidelius
from repro.core.io_protect import AesNiIoEncoder, SevApiIoEncoder
from repro.core.lifecycle import (
    GuestOwner,
    boot_protected_guest,
    read_embedded_kblk,
)
from repro.hw.machine import Machine
from repro.sev.firmware import SevFirmware
from repro.xen.hypervisor import Hypervisor
from repro.xen.pv_io.disk import VirtualDisk
from repro.xen.pv_io.frontend import connect_block_device


class System:
    """One host system, optionally hardened with Fidelius."""

    def __init__(self, machine, firmware, hypervisor, fidelius=None):
        self.machine = machine
        self.firmware = firmware
        self.hypervisor = hypervisor
        self.fidelius = fidelius
        self.sev_es = False

    @classmethod
    def create(cls, fidelius=True, frames=4096, seed=0x51EF, lazy_npt=False,
               iommu=False, sev_es=False):
        """Boot a host.

        With ``fidelius=True`` the SEV platform INIT runs inside
        Fidelius's type 3 gate during its late launch (Section 4.3.1);
        without it, the hypervisor initializes the firmware directly —
        the baseline configuration.  ``sev_es=True`` models the SEV-ES
        hardware on a baseline host (the paper's "remaining problems"
        configuration).  ``iommu=True`` adds the beyond-the-paper
        device-DMA protection extension.
        """
        machine = Machine(frames=frames, seed=seed)
        machine.build_host_address_space()
        firmware = SevFirmware(machine)
        hypervisor = Hypervisor(machine, firmware)
        hypervisor.lazy_npt = lazy_npt
        if fidelius:
            hypervisor.boot()
            if iommu:
                hypervisor.enable_iommu()
            if sev_es:
                from repro.sev.es import enable_sev_es
                hypervisor.sev_es_boundary = enable_sev_es(hypervisor)
            fid = Fidelius(machine, hypervisor, firmware).install()
            system = cls(machine, firmware, hypervisor, fid)
            system.sev_es = sev_es
            return system
        firmware.init()
        hypervisor.boot()
        if iommu:
            hypervisor.enable_iommu()
        system = cls(machine, firmware, hypervisor, None)
        if sev_es:
            from repro.sev.es import enable_sev_es
            enable_sev_es(hypervisor)
            system.sev_es = True
        return system

    @property
    def protected(self):
        return self.fidelius is not None

    # -- guest construction -------------------------------------------------------

    def create_baseline_sev_guest(self, name, guest_frames=64, vcpus=1):
        """A guest protected by *plain SEV only* (no Fidelius): the
        configuration the Section 2.2 attacks are mounted against."""
        domain = self.hypervisor.create_domain(name, guest_frames, sev=True,
                                               vcpus=vcpus)
        handle = self.firmware.launch_start()
        self.firmware.launch_finish(handle)
        self.firmware.activate(handle, domain.asid)
        domain.sev_handle = handle
        domain.sev_es = self.sev_es
        return domain, domain.context()

    def create_plain_guest(self, name, guest_frames=64, vcpus=1):
        """A guest with no memory encryption at all."""
        domain = self.hypervisor.create_domain(name, guest_frames, sev=False,
                                               vcpus=vcpus)
        return domain, domain.context()

    def boot_protected_guest(self, name, owner, payload=b"", guest_frames=64,
                             tamper=None, vcpus=1):
        """Boot a fully protected guest from an owner-prepared encrypted
        image (Sections 4.3.2-4.3.3).  Requires Fidelius."""
        if self.fidelius is None:
            raise ReproError("protected guests require Fidelius")
        image = owner.prepare_encrypted_image(
            payload, self.firmware.platform_public_key)
        return boot_protected_guest(
            self.fidelius, name, image, guest_frames, tamper=tamper,
            vcpus=vcpus)

    # -- storage ------------------------------------------------------------------------

    def attach_disk(self, domain, ctx, sectors=4096, encoder=None,
                    image=None, buffer_pages=4):
        """Create a disk, optionally preloaded with ``image``, and wire
        the PV block path up.  Returns (disk, frontend, backend)."""
        disk = VirtualDisk(sectors=sectors)
        if image is not None:
            disk.load_image(0, image)
        frontend, backend = connect_block_device(
            self.hypervisor, domain, ctx, disk, encoder=encoder,
            buffer_pages=buffer_pages)
        return disk, frontend, backend

    def memory_contains(self, needle):
        """True if ``needle`` appears anywhere in raw DRAM — what a
        cold-boot attacker (or the hypervisor via DMA) would see.  Guest
        secrets behind the memory encryption engine never match."""
        return any(needle in frame
                   for frame in self.machine.cold_boot_dump().values())

    def aesni_encoder_for(self, ctx):
        """Build the AES-NI encoder from the K_blk embedded in the
        booted kernel image (Section 4.3.3 step 4)."""
        kblk = read_embedded_kblk(ctx)
        return AesNiIoEncoder(kblk, self.machine.cycles)

    def sev_encoder_for(self, domain, ctx, pages=4):
        """Build the SEV-API encoder (creates the s-dom and r-dom)."""
        if self.fidelius is None:
            raise ReproError("the SEV I/O path requires Fidelius")
        return SevApiIoEncoder.create(self.fidelius, domain, ctx, pages=pages)


def paired_systems(frames=4096, seed=0x7E57):
    """Two Fidelius hosts (e.g. a migration source and target)."""
    source = System.create(fidelius=True, frames=frames, seed=seed)
    target = System.create(fidelius=True, frames=frames, seed=seed + 1)
    return source, target


__all__ = ["System", "GuestOwner", "paired_systems"]
