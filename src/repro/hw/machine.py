"""The assembled board: memory, controller, CPU, DMA, allocator, RNG.

A :class:`Machine` is pure hardware.  The Xen substrate boots on top of
it (``repro.xen.hypervisor``), the SEV firmware attaches to its memory
controller (``repro.sev.firmware``), and Fidelius retrofits the booted
host (``repro.core.fidelius``).  The full assembled stack lives in
``repro.system``.
"""

import random

from repro.common.constants import (
    DEFAULT_MACHINE_FRAMES,
    PTE_NX,
    PTE_PRESENT,
    PTE_WRITABLE,
)
from repro.common import crypto
from repro.hw.cpu import Cpu
from repro.hw.cycles import CycleCounter
from repro.hw.dma import DmaEngine
from repro.hw.memctrl import MemoryController
from repro.hw.memory import FrameAllocator, PhysicalMemory
from repro.hw.pagetable import PageTableWalker
from repro.hw.tlb import Tlb


class Machine:
    """One simulated host machine."""

    def __init__(self, frames=DEFAULT_MACHINE_FRAMES, seed=0x51EF):
        self.rng = random.Random(seed)
        self.cycles = CycleCounter()
        self.memory = PhysicalMemory(frames)
        self.memctrl = MemoryController(self.memory, self.cycles)
        self.allocator = FrameAllocator(frames, reserved=1)
        self.walker = PageTableWalker(self.memory, alloc_frame=self.allocator.alloc)
        self.tlb = Tlb(self.cycles)
        self.cpu = Cpu(self.memctrl, self.tlb, self.cycles, self.memory)
        self.dma = DmaEngine(self.memctrl)
        self.host_root = None

    @property
    def frames(self):
        return self.memory.frames

    # fidelint: ignore[FID004] -- boot-time construction is untimed
    def build_host_address_space(self):
        """Boot-time construction of the host direct map (VA == PA).

        Every frame is mapped supervisor, writable and non-executable;
        the Xen boot code re-marks its text pages executable/read-only.
        Returns the root page-table PFN and loads it into CR3.
        """
        root = self.allocator.alloc()
        self.memory.zero_frame(root)
        for pfn in range(self.frames):
            va = pfn << 12
            self.walker.map(root, va, pfn, PTE_WRITABLE | PTE_NX | PTE_PRESENT)
        self.host_root = root
        self.cpu.cr3_root = root
        self.tlb.flush_all("boot")
        return root

    def host_table_pages(self):
        """All page-table-pages of the host address space (level, pfn)."""
        if self.host_root is None:
            raise RuntimeError("host address space not built yet")
        return list(self.walker.table_pages(self.host_root))

    def cold_boot_dump(self):
        """What a physical attacker sees: the raw DRAM contents."""
        return self.memory.dump()

    def perf_stats(self):
        """Simulator fast-path diagnostics (wall-clock only, never cycles):
        keystream-cache hit rates and the TLB's occupancy per
        address-space root.
        """
        return {
            "keystream_cache": crypto.keystream_cache_stats(),
            "tlb": {
                "hits": self.tlb.hits,
                "misses": self.tlb.misses,
                "evictions": self.tlb.evictions,
                "entries": len(self.tlb),
                "roots": len(self.tlb.root_index_sizes()),
                "root_index_sizes": self.tlb.root_index_sizes(),
            },
        }
