"""Tests for the TLB, cycle counter and VMCB models."""

import pytest

from repro.common.constants import TLB_ENTRY_FLUSH_CYCLES
from repro.common.types import ExitReason
from repro.hw.cycles import CycleCounter
from repro.hw.tlb import Tlb
from repro.hw.vmcb import ALL_FIELDS, Vmcb


class TestTlb:
    def test_miss_then_hit(self):
        tlb = Tlb(CycleCounter())
        assert tlb.lookup(1, 0x10) is None
        tlb.insert(1, 0x10, "translation")
        assert tlb.lookup(1, 0x10) == "translation"
        assert tlb.hits == 1 and tlb.misses == 1

    def test_count_stands_for_back_to_back_lookups(self):
        tlb = Tlb(CycleCounter())
        assert tlb.lookup(1, 0x10, count=3) is None
        tlb.insert(1, 0x10, "translation")
        assert tlb.lookup(1, 0x10, count=2) == "translation"
        assert tlb.hits == 2 and tlb.misses == 3

    def test_flush_page_costs_measured_cycles(self):
        cycles = CycleCounter()
        tlb = Tlb(cycles)
        tlb.insert(1, 0x10, "t")
        tlb.flush_page(1, 0x10)
        assert tlb.lookup(1, 0x10) is None
        assert cycles.by_reason["tlb-flush-entry"] == TLB_ENTRY_FLUSH_CYCLES

    def test_flush_root_only_hits_that_space(self):
        tlb = Tlb(CycleCounter())
        tlb.insert(1, 0x10, "a")
        tlb.insert(2, 0x10, "b")
        tlb.flush_root(1)
        assert tlb.lookup(1, 0x10) is None
        assert tlb.lookup(2, 0x10) == "b"

    def test_flush_all_costs_scale_with_occupancy(self):
        cycles = CycleCounter()
        tlb = Tlb(cycles)
        for i in range(256):
            tlb.insert(1, i, i)
        tlb.flush_all("mov-cr3")
        assert cycles.by_reason["mov-cr3"] > TLB_ENTRY_FLUSH_CYCLES

    def test_capacity_bound(self):
        tlb = Tlb(CycleCounter(), capacity=4)
        for i in range(10):
            tlb.insert(1, i, i)
        assert len(tlb) <= 4


class TestCycleCounter:
    def test_charge_accumulates(self):
        c = CycleCounter()
        c.charge(10, "a")
        c.charge(5, "a")
        c.charge(2, "b")
        assert c.total == 17
        assert c.by_reason["a"] == 15
        assert c.events["a"] == 2

    def test_negative_charge_rejected(self):
        c = CycleCounter()
        with pytest.raises(ValueError):
            c.charge(-1)

    def test_snapshot_delta(self):
        c = CycleCounter()
        c.charge(10, "a")
        snap = c.snapshot()
        c.charge(7, "a")
        c.charge(3, "b")
        assert c.since(snap) == 10
        assert snap.delta(c) == {"a": 7, "b": 3}
        assert snap.event_delta(c) == {"a": 1, "b": 1}

    def test_reset(self):
        c = CycleCounter()
        c.charge(10, "a")
        c.reset()
        assert c.total == 0 and not c.by_reason


class TestVmcb:
    def test_read_write_fields(self):
        vmcb = Vmcb(asid=7)
        vmcb.write("rip", 0x1000)
        assert vmcb.read("rip") == 0x1000
        assert vmcb.read("asid") == 7

    def test_unknown_field_rejected(self):
        vmcb = Vmcb()
        with pytest.raises(KeyError):
            vmcb.read("no_such_field")
        with pytest.raises(KeyError):
            vmcb.write("no_such_field", 1)

    def test_copy_is_independent(self):
        vmcb = Vmcb(asid=7)
        twin = vmcb.copy()
        vmcb.write("rip", 0x2000)
        assert twin.read("rip") == 0

    def test_diff_detects_tampering(self):
        vmcb = Vmcb(asid=7)
        shadow = vmcb.copy()
        vmcb.write("nested_cr3", 0xBAD)
        vmcb.write("asid", 9)
        assert vmcb.diff(shadow) == {"nested_cr3", "asid"}

    def test_restore_from_selected_fields(self):
        vmcb = Vmcb(asid=7)
        shadow = vmcb.copy()
        vmcb.write("rip", 5)
        vmcb.write("rsp", 6)
        vmcb.restore_from(shadow, fields=["rip"])
        assert vmcb.read("rip") == 0
        assert vmcb.read("rsp") == 6

    def test_mask_fields(self):
        vmcb = Vmcb(asid=7)
        vmcb.write("rip", 0x123)
        vmcb.mask_fields(["rip", "intercepts"])
        assert vmcb.read("rip") == 0
        assert vmcb.read("intercepts") == frozenset()

    def test_set_exit(self):
        vmcb = Vmcb()
        vmcb.set_exit(ExitReason.NPF, info1=0x40, info2=0xDEAD000)
        assert vmcb.exit_reason is ExitReason.NPF
        assert vmcb.read("exitinfo1") == 0x40
        assert vmcb.read("exitinfo2") == 0xDEAD000

    def test_all_fields_enumerable(self):
        vmcb = Vmcb()
        fields = vmcb.fields()
        assert set(fields) == set(ALL_FIELDS)
