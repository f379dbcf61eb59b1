"""Four-level page tables and the hardware walker.

Every walker reads raw physical memory, which is what lets it read a
run of leaf entries, or a whole table page, in one access.  It walks:

* the host address space (Xen + Fidelius), whose tables are not
  encrypted in our configurations;
* the nested page tables (GPA -> HPA) and the IOMMU's device tables.

The guest's own page tables (GVA -> GPA) live in encrypted guest memory
and are walked by :mod:`repro.xen.guest_paging`, not here.

The walker itself is pure hardware: it enforces PRESENT / WRITABLE /
USER / NX plus the ``CR0.WP`` and ``CR4.SMEP`` semantics, and reports
the leaf C-bit.  It does **not** enforce any Fidelius policy — policies
act on who may *write* the page-table-pages, which is exactly the
paper's non-bypassable isolation design.
"""

import struct
from dataclasses import dataclass
from itertools import compress

from repro.common.constants import (
    ENTRIES_PER_TABLE,
    PAGE_SHIFT,
    PAGE_SIZE,
    PTE_C_BIT,
    PTE_NX,
    PTE_PFN_MASK,
    PTE_PRESENT,
    PTE_SIZE,
    PTE_USER,
    PTE_WRITABLE,
    PT_LEVELS,
    VA_BITS,
)
from repro.common.errors import PageFault
from repro.common.types import Access, frame_addr

#: one table page decoded as little-endian entries (the DRAM byte order
#: of ``read_u64``, whatever the host's)
_TABLE = struct.Struct("<%dQ" % ENTRIES_PER_TABLE)

#: the leaf bits a permission check reads
_CHECKED_BITS = PTE_PRESENT | PTE_WRITABLE | PTE_USER | PTE_NX

#: virtual-address bits below one leaf table's region
_LEAF_REGION_SHIFT = PAGE_SHIFT + 9


def _index(va, level):
    return (va >> (PAGE_SHIFT + 9 * (level - 1))) & (ENTRIES_PER_TABLE - 1)


def entry_pfn(entry):
    return (entry & PTE_PFN_MASK) >> PAGE_SHIFT


def make_entry(pfn, flags):
    return (pfn << PAGE_SHIFT) | flags


@dataclass(frozen=True)
class Translation:
    """Result of a successful walk."""

    pa: int
    writable: bool
    user: bool
    nx: bool
    c_bit: bool


class PageTableWalker:
    """Walks and edits page tables rooted at a given frame."""

    def __init__(self, memory, alloc_frame=None, write_word=None):
        self._memory = memory
        self._alloc_frame = alloc_frame
        self._read_u64 = memory.read_u64
        self._write_word = write_word or memory.write_u64

    # -- translation ---------------------------------------------------------

    def translate(self, root_pfn, va, access=Access.read(),
                  wp=True, smep=False, nxe=True):
        """Translate ``va``; raises :class:`PageFault` like the hardware."""
        table_pfn, flags_and, nx_or = self._upper(root_pfn, va, access)
        entry = self._read_u64(
            (table_pfn << PAGE_SHIFT)
            + ((va >> PAGE_SHIFT) & (ENTRIES_PER_TABLE - 1)) * PTE_SIZE)
        writable, user, nx = self._check_leaf(va, entry, flags_and, nx_or,
                                              access, wp, smep, nxe)
        return Translation((entry & PTE_PFN_MASK) | (va & (PAGE_SIZE - 1)),
                           writable, user, nx, bool(entry & PTE_C_BIT))

    def leaf_run(self, root_pfn, va, pages, access=Access.read(),
                 wp=True, smep=False, nxe=True, leaves=None):
        """The leaf entries of ``va``'s page and of up to ``pages - 1``
        pages after it in the same leaf table, read in one access.

        The run stops before the first page :meth:`translate` would
        fault on; on ``va``'s own page it raises exactly what
        :meth:`translate` raises.  An entry's page address is
        ``entry & PTE_PFN_MASK`` and its C-bit ``entry & PTE_C_BIT``.

        ``leaves``, when given, is a dict the caller keeps across calls
        so that each leaf table is located once; the caller must drop it
        whenever the tables may have changed.
        """
        region = va >> _LEAF_REGION_SHIFT
        leaf = None if leaves is None else leaves.get(region)
        if leaf is None:
            leaf = self._upper(root_pfn, va, access)
            if leaves is not None:
                leaves[region] = leaf
        table_pfn, flags_and, nx_or = leaf
        first = (va >> PAGE_SHIFT) & (ENTRIES_PER_TABLE - 1)
        count = min(pages, ENTRIES_PER_TABLE - first)
        entries = struct.unpack("<%dQ" % count, self._memory.read(
            (table_pfn << PAGE_SHIFT) + first * PTE_SIZE, count * PTE_SIZE))
        self._check_leaf(va, entries[0], flags_and, nx_or, access, wp, smep,
                         nxe)
        # Pages whose checked bits equal an admitted page's pass the
        # same check; only a change of bits needs the check again.
        checked = entries[0] & _CHECKED_BITS
        page_va = va - (va & (PAGE_SIZE - 1))
        for i in range(1, count):
            bits = entries[i] & _CHECKED_BITS
            if bits != checked:
                try:
                    self._check_leaf(page_va + i * PAGE_SIZE, entries[i],
                                     flags_and, nx_or, access, wp, smep, nxe)
                except PageFault:
                    return entries[:i]
                checked = bits
        return entries

    def _upper(self, root_pfn, va, access):
        """Walk the levels above the leaf: ``(leaf table pfn, WRITABLE and
        USER folded over them, NX folded over them)``."""
        if not 0 <= va < (1 << VA_BITS):
            raise PageFault(va, access.write, access.execute, access.user,
                            message="non-canonical virtual address %#x" % va)
        read_u64 = self._read_u64
        table_pfn = root_pfn
        flags_and = PTE_WRITABLE | PTE_USER
        nx_or = 0
        shift = PAGE_SHIFT + 9 * (PT_LEVELS - 1)
        while shift > PAGE_SHIFT:
            entry = read_u64((table_pfn << PAGE_SHIFT)
                             + ((va >> shift) & (ENTRIES_PER_TABLE - 1))
                             * PTE_SIZE)
            if not entry & PTE_PRESENT:
                raise PageFault(va, access.write, access.execute, access.user,
                                present=False)
            flags_and &= entry
            nx_or |= entry & PTE_NX
            table_pfn = (entry & PTE_PFN_MASK) >> PAGE_SHIFT
            shift -= 9
        return table_pfn, flags_and, nx_or

    def _check_leaf(self, va, entry, flags_and, nx_or, access, wp, smep,
                    nxe):
        """Finish the walk of ``va`` at its leaf ``entry``: raise the
        hardware's fault, or return ``(writable, user, nx)``."""
        if not entry & PTE_PRESENT:
            raise PageFault(va, access.write, access.execute, access.user,
                            present=False)
        flags_and &= entry
        writable = bool(flags_and & PTE_WRITABLE)
        user = bool(flags_and & PTE_USER)
        nx = bool((nx_or | entry) & PTE_NX)
        self._check_permissions(va, access, writable, user, nx, wp, smep, nxe)
        return writable, user, nx

    @staticmethod
    def _check_permissions(va, access, writable, user, nx, wp, smep, nxe):
        if access.user and not user:
            raise PageFault(va, access.write, access.execute, True, present=True)
        if access.write and not writable:
            if access.user or wp:
                raise PageFault(va, True, False, access.user, present=True)
        if access.execute:
            if nx and nxe:
                raise PageFault(va, False, True, access.user, present=True)
            if smep and user and not access.user:
                raise PageFault(va, False, True, False, present=True,
                                message="SMEP: supervisor fetch of user page")

    def permissions(self, root_pfn, va):
        """Translation without any permission check (inspection helper)."""
        return self.translate(root_pfn, va, Access.read(), wp=False)

    # -- construction and edits ------------------------------------------------

    def map(self, root_pfn, va, pfn, flags, leaves=None):
        """Install a leaf mapping, allocating intermediate tables as needed.

        Returns the list of newly allocated page-table-page PFNs so the
        caller (boot code or Fidelius) can classify them in the PIT.

        ``leaves``, as for :meth:`leaf_run`, is a dict the caller keeps
        across calls so that each leaf table is located once; the caller
        must drop it whenever the upper levels may have changed.
        """
        new_tables = []
        region = va >> _LEAF_REGION_SHIFT
        table_pfn = None if leaves is None else leaves.get(region)
        if table_pfn is None:
            table_pfn = root_pfn
            for level in range(PT_LEVELS, 1, -1):
                entry_pa = frame_addr(table_pfn) + _index(va, level) * PTE_SIZE
                entry = self._read_u64(entry_pa)
                if not entry & PTE_PRESENT:
                    if self._alloc_frame is None:
                        raise PageFault(va, message="no allocator to grow tables")
                    child = self._alloc_frame()
                    self._memory.zero_frame(child)
                    new_tables.append((level - 1, child))
                    self._write_word(
                        entry_pa,
                        make_entry(child, PTE_PRESENT | PTE_WRITABLE | PTE_USER))
                    table_pfn = child
                else:
                    table_pfn = entry_pfn(entry)
            if leaves is not None:
                leaves[region] = table_pfn
        leaf_pa = frame_addr(table_pfn) + _index(va, 1) * PTE_SIZE
        self._write_word(leaf_pa, make_entry(pfn, flags | PTE_PRESENT))
        return new_tables

    def unmap(self, root_pfn, va):
        leaf_pa = self.entry_pa(root_pfn, va)
        entry = self._read_u64(leaf_pa)
        self._write_word(leaf_pa, 0)
        return entry

    def entry_pa(self, root_pfn, va, level=1):
        """Physical address of the entry for ``va`` at ``level``.

        This is what lets *software* edit an entry through its own mapped
        view of the page-table-page — and what lets Fidelius fault such
        edits when the page-table-pages are write-protected.
        """
        table_pfn = root_pfn
        for cur in range(PT_LEVELS, level, -1):
            entry_pa = frame_addr(table_pfn) + _index(va, cur) * PTE_SIZE
            entry = self._read_u64(entry_pa)
            if not entry & PTE_PRESENT:
                raise PageFault(va, present=False,
                                message="no level-%d table for %#x" % (cur - 1, va))
            table_pfn = entry_pfn(entry)
        return frame_addr(table_pfn) + _index(va, level) * PTE_SIZE

    def read_entry(self, root_pfn, va, level=1):
        return self._read_u64(self.entry_pa(root_pfn, va, level))

    def write_entry(self, root_pfn, va, value, level=1):
        """Raw (hardware/boot-time) entry write — not subject to WP."""
        self._write_word(self.entry_pa(root_pfn, va, level), value)

    def set_flags(self, root_pfn, va, set_mask=0, clear_mask=0):
        leaf_pa = self.entry_pa(root_pfn, va)
        entry = self._read_u64(leaf_pa)
        if not entry & PTE_PRESENT:
            raise PageFault(va, present=False)
        self._write_word(leaf_pa, (entry | set_mask) & ~clear_mask)

    # -- enumeration ------------------------------------------------------------

    def _present(self, table_pfn):
        """``(index, entry)`` of every present entry of one table page,
        from one read of the page."""
        entries = _TABLE.unpack(self._memory.read_frame(table_pfn))
        return compress(enumerate(entries), map(PTE_PRESENT.__and__, entries))

    def table_pages(self, root_pfn):
        """All page-table-page PFNs reachable from ``root_pfn``, with levels.

        Fidelius write-protects every one of these at boot (Section 4.1.1).
        Yields (level, pfn) pairs, the root included at level 4.
        """
        yield PT_LEVELS, root_pfn
        yield from self._table_pages_below(root_pfn, PT_LEVELS)

    def _table_pages_below(self, table_pfn, level):
        if level == 1:
            return
        for _, entry in self._present(table_pfn):
            child = entry_pfn(entry)
            yield level - 1, child
            yield from self._table_pages_below(child, level - 1)

    def leaf_mappings(self, root_pfn):
        """Yield (va, entry) for every present leaf mapping."""
        yield from self._leaves(root_pfn, PT_LEVELS, 0)

    def _leaves(self, table_pfn, level, va_prefix):
        shift = PAGE_SHIFT + 9 * (level - 1)
        for i, entry in self._present(table_pfn):
            va = va_prefix | (i << shift)
            if level == 1:
                yield va, entry
            else:
                yield from self._leaves(entry_pfn(entry), level - 1, va)
