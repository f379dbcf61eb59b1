"""Tests for the DMA engine wrapper and instruction-fetch edge cases."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.constants import HOST_ASID, PAGE_SIZE, PTE_C_BIT, PTE_NX
from repro.common.errors import PageFault
from repro.common.types import PRIV_OPCODES, PrivOp
from repro.hw import Machine
from repro.hw.dma import DmaEngine

from . import reference_fetch


@pytest.fixture
def m():
    machine = Machine(frames=128, seed=8)
    machine.build_host_address_space()
    return machine


class TestDmaEngine:
    def test_frame_roundtrip(self, m):
        dma = DmaEngine(m.memctrl)
        dma.write_frame(9, bytes([3]) * PAGE_SIZE)
        assert dma.read_frame(9) == bytes([3]) * PAGE_SIZE
        assert dma.transfers == 2

    def test_partial_frame_write_rejected(self, m):
        dma = DmaEngine(m.memctrl)
        with pytest.raises(ValueError):
            dma.write_frame(9, b"short")

    def test_dma_counts_transfers(self, m):
        dma = DmaEngine(m.memctrl)
        dma.read(0x1000, 8)
        dma.write(0x1000, b"x")
        assert dma.transfers == 2


class TestInstructionFetchEdges:
    def test_fetch_across_page_boundary(self, m):
        """An encoding straddling two pages fetches correctly when both
        pages are executable — the geometry the mov CR3 placement rule
        exploits."""
        pfn = m.allocator.alloc()
        next_pfn = pfn + 1
        if not m.allocator.is_allocated(next_pfn):
            assert m.allocator.alloc() == next_pfn
        opcode = PRIV_OPCODES[PrivOp.MOV_CR0]
        rip = pfn * PAGE_SIZE + PAGE_SIZE - 1  # last byte of page
        m.memory.write(rip, opcode)
        for page in (pfn, next_pfn):
            m.walker.set_flags(m.host_root, page * PAGE_SIZE,
                               clear_mask=PTE_NX)
        m.tlb.flush_all("test")
        from repro.common.constants import CR0_PG, CR0_WP
        m.cpu.exec_privileged(PrivOp.MOV_CR0, CR0_PG | CR0_WP, rip=rip)
        assert m.cpu.cr0 == CR0_PG | CR0_WP

    def test_fetch_straddle_into_nx_page_faults(self, m):
        """If only the first page is executable, the straddling fetch
        faults on the second byte."""
        pfn = m.allocator.alloc()
        next_pfn = pfn + 1
        if not m.allocator.is_allocated(next_pfn):
            assert m.allocator.alloc() == next_pfn
        opcode = PRIV_OPCODES[PrivOp.MOV_CR0]
        rip = pfn * PAGE_SIZE + PAGE_SIZE - 1
        m.memory.write(rip, opcode)
        m.walker.set_flags(m.host_root, pfn * PAGE_SIZE, clear_mask=PTE_NX)
        m.tlb.flush_all("test")
        from repro.common.constants import CR0_PG
        with pytest.raises(PageFault) as fault:
            m.cpu.exec_privileged(PrivOp.MOV_CR0, CR0_PG, rip=rip)
        assert fault.value.vaddr == rip + 1     # the NX page's first byte
        assert fault.value.execute

    def test_encrypted_code_page_fetch(self, m):
        """Instruction bytes on a C-bit page decrypt through the guest
        key during fetch (SEV encrypts guest code too)."""
        from repro.common.constants import PTE_C_BIT, PTE_WRITABLE
        pfn = m.allocator.alloc()
        va = pfn * PAGE_SIZE
        m.memctrl.install_key(0, b"H" * 16)
        m.cpu.current_asid = 0
        m.walker.set_flags(m.host_root, va,
                           set_mask=PTE_C_BIT, clear_mask=PTE_NX)
        m.tlb.flush_all("test")
        m.memctrl.write(va, PRIV_OPCODES[PrivOp.WRMSR], c_bit=True, asid=0)
        from repro.common.constants import EFER_NXE, MSR_EFER
        m.cpu.exec_privileged(PrivOp.WRMSR, (MSR_EFER, EFER_NXE), rip=va)
        assert m.cpu.nxe_enabled


#: what the page after the fetch's first page may be
_PAGE_STATES = ("executable", "nx", "not-present", "c-bit")


def _code_machine(seed, first, following, code, capacity, cold_cache):
    """A machine with ``code`` written around the boundary between two
    host pages set up as ``first`` and ``following``."""
    machine = Machine(frames=128, seed=seed)
    machine.build_host_address_space()
    machine.memctrl.install_key(HOST_ASID, b"H" * 16)
    pfn = machine.allocator.alloc()
    assert machine.allocator.alloc() == pfn + 1
    boundary = (pfn + 1) * PAGE_SIZE
    half = len(code) // 2
    for page, state, va, part in ((pfn, first, boundary - half, code[:half]),
                                  (pfn + 1, following, boundary,
                                   code[half:])):
        page_va = page * PAGE_SIZE
        machine.memctrl.write(va, part, c_bit=state == "c-bit",
                              asid=HOST_ASID)
        if state == "executable":
            machine.walker.set_flags(machine.host_root, page_va,
                                     clear_mask=PTE_NX)
        elif state == "c-bit":
            machine.walker.set_flags(machine.host_root, page_va,
                                     set_mask=PTE_C_BIT, clear_mask=PTE_NX)
        elif state == "not-present":
            machine.walker.write_entry(machine.host_root, page_va, 0)
    if cold_cache:
        machine.memctrl.flush_cache()
    machine.tlb.capacity = capacity
    return machine, boundary


def _fetch_twice(machine, fetch, rip, length):
    """Fetch at ``rip`` on a cold TLB and again on the TLB it left;
    the bytes or ``(fault type, vaddr)`` of each, then the counters."""
    outcomes = []
    for _ in range(2):
        try:
            outcomes.append(fetch(machine.cpu, rip, length))
        except PageFault as fault:
            outcomes.append((type(fault), fault.vaddr))
    tlb = machine.tlb
    return (outcomes, tlb.hits, tlb.misses, tlb.evictions,
            [key for key, _ in tlb._live_items()],
            machine.cycles.total, dict(machine.cycles.by_reason),
            dict(machine.cycles.events))


class TestFetchAgainstTheByteLoop:
    """``Cpu._fetch`` translates once per page; the byte-by-byte loop it
    replaced (``reference_fetch``) is the oracle for every observable."""

    @settings(max_examples=60, deadline=None)
    @given(back=st.integers(0, 3), length=st.integers(1, 4),
           first=st.sampled_from(("executable", "c-bit")),
           following=st.sampled_from(_PAGE_STATES),
           code=st.binary(min_size=8, max_size=8),
           capacity=st.sampled_from((1, 2, 1024)),
           cold_cache=st.booleans())
    def test_matches_the_byte_loop(self, back, length, first, following,
                                   code, capacity, cold_cache):
        sides = []
        for fetch in (lambda cpu, va, n: cpu._fetch(va, n),
                      reference_fetch.fetch):
            machine, boundary = _code_machine(8, first, following, code,
                                              capacity, cold_cache)
            sides.append(_fetch_twice(machine, fetch, boundary - 1 - back,
                                      length))
        assert sides[0] == sides[1]
