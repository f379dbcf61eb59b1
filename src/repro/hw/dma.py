"""DMA engine: the device-side (driver-domain) view of physical memory.

SEV's design point (paper Section 2.2): DMA cannot operate on encrypted
guest memory — the engine moves raw bus bytes without any key, so an
encrypted page read via DMA yields ciphertext, and a DMA write lands
raw bytes that decrypt to garbage under the guest key.  This is why
guests must use unencrypted shared pages for I/O, which in turn is the
confidentiality hole Fidelius's I/O protection closes (Section 4.3.5).
"""

from repro.common.constants import PAGE_SIZE
from repro.common.types import frame_addr


class DmaEngine:
    """Models device DMA as issued by the (untrusted) driver domain."""

    def __init__(self, memctrl):
        self._memctrl = memctrl
        self.transfers = 0

    # fidelint: ignore[FID004] -- priced by MemoryController.dma_read
    def read(self, pa, length):
        self.transfers += 1
        return self._memctrl.dma_read(pa, length)

    # fidelint: ignore[FID004] -- priced by MemoryController.dma_write
    def write(self, pa, data):
        self.transfers += 1
        self._memctrl.dma_write(pa, data)

    def read_frame(self, pfn):
        return self.read(frame_addr(pfn), PAGE_SIZE)

    def write_frame(self, pfn, data):
        if len(data) != PAGE_SIZE:
            raise ValueError("DMA frame writes must be one full page")
        self.write(frame_addr(pfn), data)
