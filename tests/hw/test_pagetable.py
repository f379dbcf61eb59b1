"""Tests for the 4-level page-table walker."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.constants import (
    PAGE_SIZE,
    PTE_C_BIT,
    PTE_PFN_MASK,
    PTE_NX,
    PTE_PRESENT,
    PTE_USER,
    PTE_WRITABLE,
)
from repro.common.errors import PageFault
from repro.common.types import Access
from repro.hw.memory import FrameAllocator, PhysicalMemory
from repro.hw.pagetable import PageTableWalker, entry_pfn, make_entry


@pytest.fixture
def env():
    mem = PhysicalMemory(256)
    alloc = FrameAllocator(256)
    walker = PageTableWalker(mem, alloc_frame=alloc.alloc)
    root = alloc.alloc()
    mem.zero_frame(root)
    return mem, alloc, walker, root


class TestTranslate:
    def test_identity_map(self, env):
        mem, alloc, walker, root = env
        walker.map(root, 0x5000, 5, PTE_WRITABLE)
        tr = walker.translate(root, 0x5123, Access.read())
        assert tr.pa == 0x5123
        assert tr.writable

    def test_arbitrary_va_to_pa(self, env):
        mem, alloc, walker, root = env
        va = 0x7F_1234_5000  # exercises distinct high-level indexes
        walker.map(root, va, 9, PTE_WRITABLE)
        assert walker.translate(root, va + 0xAB, Access.read()).pa == 9 * PAGE_SIZE + 0xAB

    def test_unmapped_faults_not_present(self, env):
        _, _, walker, root = env
        with pytest.raises(PageFault) as exc:
            walker.translate(root, 0x9000, Access.read())
        assert exc.value.present is False

    def test_non_canonical_va_faults(self, env):
        _, _, walker, root = env
        with pytest.raises(PageFault):
            walker.translate(root, 1 << 48, Access.read())

    def test_write_to_readonly_supervisor_wp_set(self, env):
        _, _, walker, root = env
        walker.map(root, 0x5000, 5, 0)  # read-only
        with pytest.raises(PageFault) as exc:
            walker.translate(root, 0x5000, Access.store(), wp=True)
        assert exc.value.present is True and exc.value.write

    def test_write_to_readonly_supervisor_wp_clear_allowed(self, env):
        """CR0.WP=0 lets the supervisor write read-only pages: the type 1
        gate mechanism (paper Section 4.1.3)."""
        _, _, walker, root = env
        walker.map(root, 0x5000, 5, 0)
        tr = walker.translate(root, 0x5000, Access.store(), wp=False)
        assert tr.pa == 0x5000

    def test_user_write_to_readonly_always_faults(self, env):
        _, _, walker, root = env
        walker.map(root, 0x5000, 5, PTE_USER)
        with pytest.raises(PageFault):
            walker.translate(root, 0x5000, Access(write=True, user=True), wp=False)

    def test_user_access_to_supervisor_page_faults(self, env):
        _, _, walker, root = env
        walker.map(root, 0x5000, 5, PTE_WRITABLE)
        with pytest.raises(PageFault):
            walker.translate(root, 0x5000, Access(user=True))

    def test_nx_blocks_fetch(self, env):
        _, _, walker, root = env
        walker.map(root, 0x5000, 5, PTE_WRITABLE | PTE_NX)
        with pytest.raises(PageFault):
            walker.translate(root, 0x5000, Access.fetch(), nxe=True)

    def test_nx_ignored_when_nxe_disabled(self, env):
        """Clearing EFER.NXE disables NX — why Table 2 protects WRMSR."""
        _, _, walker, root = env
        walker.map(root, 0x5000, 5, PTE_WRITABLE | PTE_NX)
        tr = walker.translate(root, 0x5000, Access.fetch(), nxe=False)
        assert tr.pa == 0x5000

    def test_smep_blocks_supervisor_fetch_of_user_page(self, env):
        """CR4.SMEP semantics — why Table 2 protects MOV CR4."""
        _, _, walker, root = env
        walker.map(root, 0x5000, 5, PTE_USER)
        walker.translate(root, 0x5000, Access.fetch(), smep=False)
        with pytest.raises(PageFault):
            walker.translate(root, 0x5000, Access.fetch(), smep=True)

    def test_c_bit_reported(self, env):
        _, _, walker, root = env
        walker.map(root, 0x5000, 5, PTE_WRITABLE | PTE_C_BIT)
        assert walker.translate(root, 0x5000, Access.read()).c_bit

    @settings(max_examples=30)
    @given(va_page=st.integers(0, (1 << 36) - 1), pfn=st.integers(0, 255))
    def test_property_map_translate_roundtrip(self, va_page, pfn):
        mem = PhysicalMemory(512)
        alloc = FrameAllocator(512, reserved=256)
        walker = PageTableWalker(mem, alloc_frame=alloc.alloc)
        root = alloc.alloc()
        mem.zero_frame(root)
        va = va_page * PAGE_SIZE
        walker.map(root, va, pfn, PTE_WRITABLE)
        assert walker.translate(root, va, Access.store()).pa == pfn * PAGE_SIZE


class TestEdits:
    def test_unmap(self, env):
        _, _, walker, root = env
        walker.map(root, 0x5000, 5, PTE_WRITABLE)
        walker.unmap(root, 0x5000)
        with pytest.raises(PageFault):
            walker.translate(root, 0x5000, Access.read())

    def test_set_flags_write_protect(self, env):
        _, _, walker, root = env
        walker.map(root, 0x5000, 5, PTE_WRITABLE)
        walker.set_flags(root, 0x5000, clear_mask=PTE_WRITABLE)
        with pytest.raises(PageFault):
            walker.translate(root, 0x5000, Access.store(), wp=True)

    def test_entry_pa_locates_leaf(self, env):
        mem, _, walker, root = env
        walker.map(root, 0x5000, 5, PTE_WRITABLE)
        entry_pa = walker.entry_pa(root, 0x5000)
        entry = mem.read_u64(entry_pa)
        assert entry_pfn(entry) == 5
        assert entry & PTE_PRESENT

    def test_direct_entry_write_changes_mapping(self, env):
        """Raw PTE rewrite redirects a VA — the primitive behind the
        remapping attacks that Fidelius write-protects against."""
        mem, _, walker, root = env
        walker.map(root, 0x5000, 5, PTE_WRITABLE)
        entry_pa = walker.entry_pa(root, 0x5000)
        mem.write_u64(entry_pa, make_entry(7, PTE_PRESENT | PTE_WRITABLE))
        assert walker.translate(root, 0x5000, Access.read()).pa == 7 * PAGE_SIZE

    def test_read_write_entry_levels(self, env):
        _, _, walker, root = env
        walker.map(root, 0x5000, 5, PTE_WRITABLE)
        l2 = walker.read_entry(root, 0x5000, level=2)
        assert l2 & PTE_PRESENT


class TestEnumeration:
    def test_table_pages_cover_all_levels(self, env):
        _, _, walker, root = env
        walker.map(root, 0x5000, 5, PTE_WRITABLE)
        pages = list(walker.table_pages(root))
        levels = sorted(level for level, _ in pages)
        assert levels == [1, 2, 3, 4]

    def test_leaf_mappings(self, env):
        _, _, walker, root = env
        walker.map(root, 0x5000, 5, PTE_WRITABLE)
        walker.map(root, 0x1_0000_0000, 9, 0)
        leaves = dict(walker.leaf_mappings(root))
        assert entry_pfn(leaves[0x5000]) == 5
        assert entry_pfn(leaves[0x1_0000_0000]) == 9


# -- run form of the walk ------------------------------------------------------

#: 768 pages from 1 GiB - 1 MiB: the first 256 sit in the upper half of
#: one leaf table, the other 512 fill the next leaf table, which hangs
#: off a different level-2 table
RUN_BASE = (1 << 30) - 256 * PAGE_SIZE
RUN_PAGES = 768

#: (level, va) of each upper entry on the walks of the run region
UPPER_ENTRIES = ((4, RUN_BASE), (3, RUN_BASE), (3, 1 << 30),
                 (2, RUN_BASE), (2, 1 << 30))

#: entry edits: a hole, a read-only entry, a no-execute entry, and a
#: C-bit (which no check reads)
EDITS = (("hole", 0, PTE_PRESENT), ("read-only", 0, PTE_WRITABLE),
         ("nx", PTE_NX, 0), ("c-bit", PTE_C_BIT, 0))

ACCESSES = (Access.read(), Access.store(), Access.fetch())


def _run_tables(leaf_edits, upper_edits):
    mem = PhysicalMemory(64)
    alloc = FrameAllocator(64, reserved=32)
    walker = PageTableWalker(mem, alloc_frame=alloc.alloc)
    root = alloc.alloc()
    mem.zero_frame(root)
    for i in range(RUN_PAGES):
        # scattered frames, so a run's pages are not contiguous
        walker.map(root, RUN_BASE + i * PAGE_SIZE, (i * 7) % 29 + 1,
                   PTE_WRITABLE | PTE_USER)
    # lowest level first: a hole above an entry would hide it
    edits = [((1, RUN_BASE + page * PAGE_SIZE), edit)
             for page, edit in leaf_edits] + list(upper_edits)
    for (level, va), (_, set_mask, clear_mask) in sorted(
            edits, key=lambda item: item[0][0]):
        entry = walker.read_entry(root, va, level)
        walker.write_entry(root, va, (entry | set_mask) & ~clear_mask, level)
    return walker, root


def _fault_fields(fault):
    return (fault.vaddr, fault.write, fault.execute, fault.user,
            fault.present, str(fault))


def _per_page(walker, root, va, pages, access):
    """The reference: ``translate`` page by page until the first fault."""
    out = []
    for i in range(pages):
        try:
            t = walker.translate(root, va + i * PAGE_SIZE, access)
        except PageFault as fault:
            return out, _fault_fields(fault)
        out.append((t.pa - (t.pa & (PAGE_SIZE - 1)), t.c_bit))
    return out, None


def _by_runs(walker, root, va, pages, access, leaves):
    """``leaf_run`` from page to page, across leaf tables, as the guest
    data path drives it, until the first fault."""
    out = []
    while len(out) < pages:
        page_va = va + len(out) * PAGE_SIZE
        try:
            entries = walker.leaf_run(root, page_va, pages - len(out),
                                      access, leaves=leaves)
        except PageFault as fault:
            return out, _fault_fields(fault)
        # one run never leaves its leaf table
        assert len(entries) <= 512 - ((page_va >> 12) & 511)
        out.extend((entry & PTE_PFN_MASK, bool(entry & PTE_C_BIT))
                   for entry in entries)
    return out, None


class TestLeafRun:
    @settings(max_examples=60, deadline=None)
    @given(leaf_edits=st.lists(
               st.tuples(st.integers(0, RUN_PAGES - 1),
                         st.sampled_from(EDITS)), max_size=12),
           upper_edits=st.lists(
               st.tuples(st.sampled_from(UPPER_ENTRIES),
                         st.sampled_from(EDITS)), max_size=2),
           start=st.integers(-300, RUN_PAGES - 1),
           offset=st.integers(0, PAGE_SIZE - 1),
           pages=st.integers(1, 600),
           access=st.sampled_from(ACCESSES),
           memo=st.booleans())
    def test_runs_equal_per_page_translate(self, leaf_edits, upper_edits,
                                           start, offset, pages, access,
                                           memo):
        """Holes, read-only, no-execute and C-bit entries at every level;
        runs that start in unmapped space and cross leaf tables: the run
        form admits exactly the pages ``translate`` admits, with the
        same frames and C-bits, and raises ``translate``'s fault."""
        walker, root = _run_tables(leaf_edits, upper_edits)
        va = RUN_BASE + start * PAGE_SIZE + offset
        leaves = {} if memo else None
        assert _by_runs(walker, root, va, pages, access, leaves) \
            == _per_page(walker, root, va, pages, access)

    @settings(max_examples=30, deadline=None)
    @given(page=st.integers(0, RUN_PAGES - 2),
           edit=st.sampled_from(EDITS[:2]),
           access=st.sampled_from(ACCESSES[:2]))
    def test_one_run_stops_before_the_first_fault(self, page, edit, access):
        """A single run covers every page up to the first faulting one
        or its leaf table's end, whichever comes first."""
        walker, root = _run_tables([(page + 1, edit)], [])
        entries = walker.leaf_run(root, RUN_BASE + page * PAGE_SIZE,
                                  RUN_PAGES, access)
        table_end = 256 if page < 256 else RUN_PAGES
        next_faults = edit[0] == "hole" or access.write
        if page + 1 < table_end and next_faults:
            assert len(entries) == 1
        else:
            assert len(entries) == table_end - page

    def test_memo_locates_each_leaf_table_once(self, monkeypatch):
        walker, root = _run_tables([], [])
        upper = walker._upper
        located = []

        def locate(root_pfn, va, access):
            located.append(va >> 21)
            return upper(root_pfn, va, access)

        monkeypatch.setattr(walker, "_upper", locate)
        leaves = {}
        for page in (0, 5, 255, 256, 700):
            walker.leaf_run(root, RUN_BASE + page * PAGE_SIZE, 1,
                            leaves=leaves)
        assert located == [RUN_BASE >> 21, (1 << 30) >> 21]

    def test_entries_are_decoded_little_endian(self, env):
        mem, _, walker, root = env
        walker.map(root, 0x5000, 0x12345, PTE_WRITABLE | PTE_C_BIT)
        (entry,) = walker.leaf_run(root, 0x5000, 1)
        assert entry == mem.read_u64(walker.entry_pa(root, 0x5000))
        assert entry_pfn(entry) == 0x12345 and entry & PTE_C_BIT


class TestWholeTableEnumeration:
    def test_leaves_and_table_pages_match_per_entry_walk(self):
        walker, root = _run_tables([(3, EDITS[0]), (300, EDITS[1])],
                                   [((2, 1 << 30), EDITS[2])])
        leaves = dict(walker.leaf_mappings(root))
        want = {}
        for i in range(RUN_PAGES):
            va = RUN_BASE + i * PAGE_SIZE
            entry = walker.read_entry(root, va)
            if entry & PTE_PRESENT:
                want[va] = entry
        assert leaves == want and len(want) == RUN_PAGES - 1
        levels = sorted(level for level, _ in walker.table_pages(root))
        assert levels == [1, 1, 2, 2, 3, 4]
