"""An IOMMU: translation and permission checks for device DMA.

This is an *extension beyond the paper* (in the spirit of its Section 8
hardware reflections): the paper's threat analysis concedes that
software cannot intercept device-side writes, leaving the DMA
ciphertext-replay window open.  With an IOMMU in the machine, every DMA
goes through a device page table — and that table is hypervisor-managed
memory, which means Fidelius can write-protect it and police its
updates with the same PIT/GIT machinery it already uses for NPTs.

The device table reuses the nested-page-table structure: bus frame
number -> host frame number with a writable bit.  The table is *built by
the caller* (the hypervisor passes a ``repro.xen.npt.NestedPageTable``)
and injected here, so the hardware layer never imports hypervisor code.
"""

from repro.common.constants import PAGE_SIZE
from repro.common.errors import NestedPageFault, ReproError


class IommuFault(ReproError):
    """A device access the IOMMU refused."""

    def __init__(self, bus_addr, write):
        self.bus_addr = bus_addr
        self.write = write
        super().__init__(
            "IOMMU blocked device %s at bus address %#x"
            % ("write" if write else "read", bus_addr))


class Iommu:
    """One IOMMU context (we model a single device domain: the disk)."""

    def __init__(self, table):
        #: The device page table: any object with the nested-page-table
        #: translate/entry_pa/all_table_pfns surface.
        self.table = table
        self.enabled = True
        self.faults = 0

    # fidelint: ignore[FID004] -- fault counting is diagnostics; the walk
    # itself models an IOTLB hit (device-table walks are not on the paper's
    # measured paths)
    def translate(self, bus_addr, write):
        """Translate a device access; raises :class:`IommuFault`."""
        if not self.enabled:
            return bus_addr
        try:
            translation = self.table.translate(bus_addr, write=write)
        except NestedPageFault:
            self.faults += 1
            raise IommuFault(bus_addr, write)
        return translation.pa

    def window(self, bus_gfn, length):
        """All (bus_addr, pa) page pieces for a device transfer."""
        pieces = []
        addr = bus_gfn * PAGE_SIZE
        remaining = length
        while remaining > 0:
            take = min(remaining, PAGE_SIZE - addr % PAGE_SIZE)
            pieces.append((addr, take))
            addr += take
            remaining -= take
        return pieces


class ProtectedDmaEngine:
    """A DMA engine whose accesses go through the IOMMU."""

    def __init__(self, memctrl, iommu):
        self._memctrl = memctrl
        self.iommu = iommu
        self.transfers = 0

    # fidelint: ignore[FID004] -- priced by MemoryController.dma_read
    def read(self, bus_addr, length):
        self.transfers += 1
        out = bytearray()
        cursor = bus_addr
        remaining = length
        while remaining:
            take = min(remaining, PAGE_SIZE - cursor % PAGE_SIZE)
            pa = self.iommu.translate(cursor, write=False)
            out.extend(self._memctrl.dma_read(pa, take))
            cursor += take
            remaining -= take
        return bytes(out)

    # fidelint: ignore[FID004] -- priced by MemoryController.dma_write
    def write(self, bus_addr, data):
        self.transfers += 1
        view = memoryview(data)
        cursor = bus_addr
        while view.nbytes:
            take = min(view.nbytes, PAGE_SIZE - cursor % PAGE_SIZE)
            pa = self.iommu.translate(cursor, write=True)
            self._memctrl.dma_write(pa, bytes(view[:take]))
            cursor += take
            view = view[take:]
