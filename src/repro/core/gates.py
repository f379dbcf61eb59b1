"""The three gate types securing Xen -> Fidelius transitions
(paper Section 4.1.3, Figure 3).

* **Type 1 — disable WP** (306 cycles): for the common case (updating
  write-protected structures: page tables, NPTs, grant tables).  No
  address-space change, no TLB traffic: interrupts off, stack switch,
  clear ``CR0.WP`` through the monopolized ``mov CR0``, sanity check,
  enforce the PIT/GIT policy, perform the write, restore.
* **Type 2 — checking loop** (16 cycles): not a transition at all but
  validation logic placed physically adjacent to each monopolized
  privileged instruction, so even a control-flow-hijacked execution
  passes through it.  Implemented as the CPU's post-execution hooks.
* **Type 3 — add new mapping** (339 cycles = one PTE write ~2 + one TLB
  entry flush 128 + checks): for resources unmapped from the
  hypervisor (VMRUN / ``mov CR3`` instructions, shadow area, SEV
  metadata).  Maps the pre-allocated page transiently, runs the body,
  withdraws the mapping and flushes the stale TLB entry.

The rejected design — a full CR3 switch per transition — is also
implemented (``cr3_switch_transition``) for the ablation benchmark.
"""

from contextlib import contextmanager

from repro.common.constants import (
    CACHE_WRITE_CYCLES,
    CR0_WP,
    FULL_TLB_FLUSH_CYCLES,
    GATE1_CYCLES,
    GATE2_CYCLES,
    GATE3_CYCLES,
    PTE_NX,
    PTE_PRESENT,
    TLB_ENTRY_FLUSH_CYCLES,
)
from repro.common.errors import GateViolation, PolicyViolation
from repro.common.types import PrivOp
from repro.hw.pagetable import make_entry


class GateKeeper:
    """Implements the transitions for one Fidelius instance."""

    def __init__(self, fidelius):
        self._fid = fidelius
        self._machine = fidelius.machine
        self._cpu = fidelius.machine.cpu

    # -- shared sanity checking (the "disable interrupts, switch stacks,
    #    and do sanity checks" part of every gate) --------------------------------

    def _enter(self, kind):
        cpu = self._cpu
        # check, then commit: a refused entry must leave the CPU state
        # untouched, so both refusals precede the first mutation
        if cpu.gate_active is not None:
            raise GateViolation(kind, "nested gate entry")
        if cpu.cr3_root not in self._fid.valid_roots:
            raise GateViolation(kind, "gate entered from a rogue address space")
        self._saved_irq = cpu.interrupts_enabled
        cpu.interrupts_enabled = False
        self._saved_stack = cpu.current_stack
        cpu.current_stack = "fidelius"
        cpu.gate_active = kind
        self._sanity(kind)

    def _exit(self, kind):
        cpu = self._cpu
        cpu.gate_active = None
        cpu.current_stack = self._saved_stack
        cpu.interrupts_enabled = self._saved_irq

    def _sanity(self, kind):
        cpu = self._cpu
        if cpu.interrupts_enabled:
            raise GateViolation(kind, "interrupts enabled inside gate")
        if cpu.current_stack != "fidelius":
            raise GateViolation(kind, "gate running on the wrong stack")
        if cpu.cr3_root not in self._fid.valid_roots:
            raise GateViolation(kind, "gate entered from a rogue address space")

    # -- type 1: disable WP ----------------------------------------------------------

    @contextmanager
    def type1(self):
        """Clear CR0.WP so write-protected structures become writable to
        the (policy-checked) body; the measured cost is 306 cycles."""
        self._machine.cycles.charge(GATE1_CYCLES, "gate1")
        self._enter("type1")
        cpu = self._cpu
        old_cr0 = cpu.cr0
        try:
            self._fid.exec_monopolized(PrivOp.MOV_CR0, old_cr0 & ~CR0_WP)
            yield
        finally:
            # the gate must close even if restoring CR0 itself faults
            try:
                self._fid.exec_monopolized(PrivOp.MOV_CR0, old_cr0)
            finally:
                self._exit("type1")

    def guarded_write(self, va, data):
        """The gated write path installed as the hypervisor's
        ``word_writer``: policy first, then the write with WP clear."""
        with self.type1():
            data = bytes(data)
            try:
                self._fid.write_policy.check(va, data)
            except PolicyViolation as exc:
                self._fid.audit_event("denied", policy=exc.policy,
                                      detail=str(exc), va=va)
                raise
            self._cpu.store(va, data)
            self._machine.cycles.charge(CACHE_WRITE_CYCLES, "gate1-write")

    # -- type 2: checking loops --------------------------------------------------------

    def charge_type2(self):
        """Cycle cost of one checking-loop pass (16 cycles)."""
        self._machine.cycles.charge(GATE2_CYCLES, "gate2")

    # -- type 3: transient mappings ------------------------------------------------------

    @contextmanager
    def type3(self, pfn, executable=False):
        """Temporarily map ``pfn`` at its identity VA in the host space.

        One raw PTE write into the (write-protected) page-table-page —
        Fidelius's own action in its own context — plus a TLB flush of
        the stale entry on withdrawal.
        """
        self._machine.cycles.charge(
            GATE3_CYCLES - TLB_ENTRY_FLUSH_CYCLES, "gate3")
        self._enter("type3")
        va = pfn << 12
        walker = self._machine.walker
        root = self._machine.host_root
        flags = PTE_PRESENT if executable else PTE_PRESENT | PTE_NX
        try:
            walker.write_entry(root, va, make_entry(pfn, flags))
            yield va
        finally:
            # the gate must close even if the withdrawal itself faults
            try:
                walker.write_entry(root, va, 0)
                # Mapping freshness: flush the stale entry (128 cycles,
                # already part of the measured 339-cycle gate cost).
                self._machine.tlb.flush_page(root, pfn)
            finally:
                self._exit("type3")

    @contextmanager
    def firmware_gate(self):
        """Type 3 gate wrapping SEV firmware command submission: the
        command-issuing code and the SEV metadata pages are unmapped
        from the hypervisor and only reachable here (Section 4.2.3)."""
        with self.type3(self._fid.sev_metadata_pfns[0]) as va:
            yield va

    # -- the rejected alternative, for the ablation study --------------------------------

    @contextmanager
    def cr3_switch_transition(self):
        """Full address-space switch per transition (the design the
        paper rejects in Section 4.1.3): costs a full TLB flush."""
        self._machine.cycles.charge(FULL_TLB_FLUSH_CYCLES, "cr3-switch-gate")
        self._enter("cr3-switch")
        try:
            yield
        finally:
            self._exit("cr3-switch")
