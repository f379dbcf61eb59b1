"""The byte-by-byte instruction fetch that ``Cpu._fetch`` replaced.

:func:`fetch` translates every byte on its own, through
:func:`translate`, and reads it with one raw read (one charged read of
the memory controller on a C-bit page).  ``Cpu._fetch`` translates once
per page and credits the page's later bytes as TLB hits;
``test_dma_and_fetch.py`` holds the two equal on the bytes, the fault,
the TLB counters and the cycle ledger.  Kept verbatim: it is the oracle,
not a second implementation to maintain.
"""

from repro.common.constants import TLB_MISS_WALK_CYCLES
from repro.common.types import Access
from repro.hw.pagetable import PageTableWalker


def translate(cpu, va, access):
    """One TLB lookup (and on a miss, one charged walk and fill), then
    the permission check; the ``Translation`` of ``va``."""
    vpn = va >> 12
    translation = cpu.tlb.lookup(cpu.cr3_root, vpn)
    if translation is None:
        cpu.cycles.charge(TLB_MISS_WALK_CYCLES, "pt-walk")
        translation = cpu._walker.permissions(cpu.cr3_root, va)
        cpu.tlb.insert(cpu.cr3_root, vpn, translation)
    PageTableWalker._check_permissions(
        va,
        access,
        translation.writable,
        translation.user,
        translation.nx,
        wp=cpu.wp_enabled,
        smep=cpu.smep_enabled,
        nxe=cpu.nxe_enabled,
    )
    page_pa = translation.pa & ~0xFFF
    return type(translation)(
        page_pa | (va & 0xFFF), translation.writable,
        translation.user, translation.nx, translation.c_bit,
    )


def fetch(cpu, va, length):
    """Instruction fetch: byte-by-byte so page-crossing works."""
    out = bytearray()
    for i in range(length):
        translation = translate(cpu, va + i, Access.fetch())
        byte = cpu.memctrl.memory.read(translation.pa, 1)
        if translation.c_bit:
            byte = cpu.memctrl.read(translation.pa, 1,
                                    c_bit=True, asid=cpu.current_asid)
        out.extend(byte)
    return bytes(out)
