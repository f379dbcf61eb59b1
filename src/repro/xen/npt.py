"""Nested page tables: the GPA -> HPA mapping of one guest.

The NPT is *hypervisor-managed state held in ordinary host frames*,
which is the crux of the paper's Section 2.2 analysis: even with SEV-ES,
the hypervisor can remap guest-physical pages at will — replaying stale
frames past password checks, or mapping a victim's frames into a
conspirator's NPT.  Fidelius therefore write-protects the NPT pages in
the hypervisor's address space and forces updates through the type 1
gate where PIT policies run (Section 4.2.2).

Two write paths exist by design:

* the *raw* path (boot-time construction, Fidelius internals) writes
  through physical memory directly;
* the *software* path returns entry physical addresses so the
  hypervisor performs the write through its own virtual mapping — the
  write that faults once the pages are protected.
"""

from repro.common.constants import (
    PTE_C_BIT,
    PTE_PRESENT,
    PTE_USER,
    PTE_WRITABLE,
)
from repro.common.errors import NestedPageFault, PageFault
from repro.common.types import Access
from repro.hw.pagetable import PageTableWalker, entry_pfn

#: the two accesses a nested walk checks (``Access`` is immutable)
_ACCESS = {False: Access.read(), True: Access.store()}


class NestedPageTable:
    """One guest's nested page table."""

    def __init__(self, machine, allocate_frame=None):
        self._machine = machine
        self._alloc = allocate_frame or machine.allocator.alloc
        self._walker = PageTableWalker(machine.memory, alloc_frame=self._alloc)
        self.root_pfn = self._alloc()
        # fidelint: ignore[FID001] -- construction-time zeroing of a
        # fresh table root, before the table carries any mapping.
        machine.memory.zero_frame(self.root_pfn)
        #: PFNs of every NPT page (root + intermediates), for protection.
        self.table_pfns = {self.root_pfn}

    def translate(self, gpa, write=False):
        """Hardware second-level walk; raises :class:`NestedPageFault`."""
        try:
            translation = self._walker.translate(
                self.root_pfn, gpa, _ACCESS[write], wp=True,
            )
        except PageFault as fault:
            raise NestedPageFault(gpa, write=write, message=str(fault))
        return translation

    def translate_run(self, gpa, pages, write=False, leaves=None):
        """The leaf entries of a run of up to ``pages`` pages from
        ``gpa``'s (:meth:`PageTableWalker.leaf_run`); raises
        :class:`NestedPageFault` exactly where :meth:`translate` would
        on ``gpa``'s own page."""
        try:
            return self._walker.leaf_run(
                self.root_pfn, gpa, pages, _ACCESS[write], wp=True,
                leaves=leaves)
        except PageFault as fault:
            raise NestedPageFault(gpa, write=write, message=str(fault))

    def maps(self, gpa):
        try:
            self.translate(gpa)
            return True
        except NestedPageFault:
            return False

    def hpa_of(self, gpa, write=False):
        return self.translate(gpa, write=write).pa

    def c_bit_of(self, gpa):
        """The NPT-level C-bit (SME encryption chosen by the host side)."""
        return self.translate(gpa).c_bit

    # -- raw construction (boot / trusted context) -------------------------------

    def map_raw(self, gpa, hpfn, writable=True, c_bit=False):
        """Install a mapping through the raw path; returns new table pfns."""
        flags = PTE_PRESENT | PTE_USER
        if writable:
            flags |= PTE_WRITABLE
        if c_bit:
            flags |= PTE_C_BIT
        new_tables = self._walker.map(self.root_pfn, gpa, hpfn, flags)
        for _, pfn in new_tables:
            self.table_pfns.add(pfn)
        return [pfn for _, pfn in new_tables]

    def unmap_raw(self, gpa):
        return self._walker.unmap(self.root_pfn, gpa)

    def set_flags_raw(self, gpa, set_mask=0, clear_mask=0):
        self._walker.set_flags(self.root_pfn, gpa, set_mask, clear_mask)

    # -- software path (what the hypervisor must use) ------------------------------

    def entry_pa(self, gpa, level=1):
        """Physical address of the NPT entry, for a software write.

        The caller writes it through its own virtual mapping of the NPT
        page; under Fidelius that page is read-only and the write either
        goes through the type 1 gate or faults.
        """
        return self._walker.entry_pa(self.root_pfn, gpa, level)

    def read_entry(self, gpa, level=1):
        return self._walker.read_entry(self.root_pfn, gpa, level)

    # -- enumeration -----------------------------------------------------------------

    def leaf_mappings(self):
        return list(self._walker.leaf_mappings(self.root_pfn))

    def mapped_hpfns(self):
        return {entry_pfn(entry) for _, entry in self.leaf_mappings()}

    def all_table_pfns(self):
        """Authoritative table-page set recomputed from the tree."""
        return {pfn for _, pfn in self._walker.table_pages(self.root_pfn)}
