"""The CPU model: modes, control registers, privileged instructions.

The CPU is policy-free hardware.  Fidelius's power comes exclusively
from two hardware behaviours modelled here:

* every software memory access is translated through the current
  address space, so *mappings* (and ``CR0.WP``) decide what the
  hypervisor can touch — faults are dispatched to the registered
  handler, as through a fault vector;
* every privileged-instruction execution performs a real instruction
  fetch: the opcode bytes must be present, executable and actually
  contain the encoding — so unmapping the single VMRUN / ``mov CR3``
  instance (type 3 gates) or hooking the checking loop physically
  adjacent to a monopolized instruction (type 2 gates) is enforceable.

GPR semantics follow AMD-V: VMRUN/VMEXIT save and load only RAX, RIP
and RSP through the VMCB; the other guest GPRs stay live in the CPU
across an exit.  That exposure *is* the register-stealing attack of
Section 2.2, and the reason Fidelius shadows and masks the register
file at the exit boundary.
"""

from repro.common.constants import (
    CR0_PG,
    CR0_WP,
    CR4_SMEP,
    EFER_NXE,
    EFER_SVME,
    HOST_ASID,
    MSR_EFER,
    PAGE_SHIFT,
    PAGE_SIZE,
    TLB_MISS_WALK_CYCLES,
)
from repro.common.errors import GateViolation, PageFault, ReproError
from repro.common.types import Access, CpuMode, PRIV_OPCODES, PrivOp
from repro.hw.pagetable import PageTableWalker

#: the access every instruction fetch checks (``Access`` is immutable)
_FETCH = Access.fetch()

GPR_NAMES = (
    "rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp", "rsp",
    "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
)


class RegisterFile:
    """The sixteen general-purpose registers."""

    def __init__(self):
        self._regs = {name: 0 for name in GPR_NAMES}

    def __getitem__(self, name):
        return self._regs[name]

    def __setitem__(self, name, value):
        if name not in self._regs:
            raise KeyError("no register %r" % name)
        self._regs[name] = value

    def copy(self):
        twin = RegisterFile()
        twin._regs = dict(self._regs)
        return twin

    # fidelint: ignore[FID004] -- priced at VMRUN/VMEXIT sites
    def load_from(self, other):
        self._regs = dict(other._regs)

    # fidelint: ignore[FID004] -- priced at VMRUN/VMEXIT sites
    def mask_except(self, keep=()):
        """Zero every register not in ``keep`` (Fidelius masking)."""
        for name in self._regs:
            if name not in keep:
                self._regs[name] = 0

    def diff(self, other):
        return {name for name in GPR_NAMES if self._regs[name] != other._regs[name]}

    def as_dict(self):
        return dict(self._regs)


class Cpu:
    """One logical processor."""

    def __init__(self, memctrl, tlb, cycles, memory):
        self.memctrl = memctrl
        self.tlb = tlb
        self.cycles = cycles
        self.mode = CpuMode.HOST
        self.regs = RegisterFile()
        self.cr0 = CR0_PG | CR0_WP
        self.cr3_root = 0
        self.cr4 = 0
        self.efer = EFER_NXE
        self.gdt_base = 0
        self.idt_base = 0
        self.interrupts_enabled = True
        self.current_stack = "xen"
        self.current_asid = HOST_ASID
        #: Set by gates while the CPU runs inside Fidelius's context;
        #: checking-loop hooks consult it to tell gated from hijacked
        #: executions of monopolized instructions.
        self.gate_active = None
        #: Registered by Fidelius: called for host-mode faults with
        #: (fault, op) where op is ("write", va, data) or ("read", va, n).
        #: Returns True if the access was emulated/absorbed.
        self.fault_handler = None
        #: Checking-loop logic installed around monopolized instructions
        #: (type 2 gates): {PrivOp: callable(cpu, op, arg, old_state)}.
        self.priv_post_hooks = {}
        #: Where each checking loop physically lives: the hook for an op
        #: only runs when the instruction executes at its monopoly site
        #: (None = anywhere).  Together with the binary-scan monopoly,
        #: every *reachable* encoding is a guarded one; re-planting a
        #: stray copy (skipping the rewrite) genuinely re-opens the hole.
        self.priv_hook_sites = {}
        self._walker = PageTableWalker(memory)
        self._hsave = None

    # -- control-register helpers ------------------------------------------------

    @property
    def wp_enabled(self):
        return bool(self.cr0 & CR0_WP)

    @property
    def smep_enabled(self):
        return bool(self.cr4 & CR4_SMEP)

    @property
    def nxe_enabled(self):
        return bool(self.efer & EFER_NXE)

    @property
    def svme_enabled(self):
        return bool(self.efer & EFER_SVME)

    # -- host-mode virtual memory access ------------------------------------------

    def _translate(self, va, access):
        """``(pa, c_bit)`` of ``va`` in the current address space, after
        the access check; raises the hardware's :class:`PageFault`."""
        vpn = va >> PAGE_SHIFT
        translation = self.tlb.lookup(self.cr3_root, vpn)
        if translation is None:
            self.cycles.charge(TLB_MISS_WALK_CYCLES, "pt-walk")
            translation = self._walker.permissions(self.cr3_root, va)
            self.tlb.insert(self.cr3_root, vpn, translation)
        PageTableWalker._check_permissions(
            va,
            access,
            translation.writable,
            translation.user,
            translation.nx,
            wp=self.wp_enabled,
            smep=self.smep_enabled,
            nxe=self.nxe_enabled,
        )
        return ((translation.pa & ~(PAGE_SIZE - 1)) | (va & (PAGE_SIZE - 1)),
                translation.c_bit)

    def load(self, va, length, user=False):
        """Host-mode virtual read through the current address space."""
        try:
            pa, c_bit = self._translate(va, Access(user=user))
        except PageFault as fault:
            if self.fault_handler and self.fault_handler(fault, ("read", va, length)):
                return bytes(length)
            raise
        return self.memctrl.read(pa, length, c_bit=c_bit, asid=self.current_asid)

    def store(self, va, data, user=False):
        """Host-mode virtual write through the current address space."""
        try:
            pa, c_bit = self._translate(va, Access(write=True, user=user))
        except PageFault as fault:
            if self.fault_handler and self.fault_handler(fault, ("write", va, bytes(data))):
                return
            raise
        self.memctrl.write(pa, data, c_bit=c_bit, asid=self.current_asid)

    def store_u64(self, va, value):
        self.store(va, (value & (2 ** 64 - 1)).to_bytes(8, "little"))

    def _fetch(self, va, length):
        """Instruction fetch: one translation per page the bytes span.

        Each page is translated and checked at its first byte, so a
        fetch that straddles into a page it may not execute faults at
        that page's first byte, as a byte-by-byte fetch would.  The
        page's later bytes are TLB hits on the entry just filled or
        refreshed, and are counted as such.  Fetches hit the instruction
        cache in any realistic run of the gate paths, so a plain page
        charges no DRAM latency; a C-bit page's bytes are decrypted by
        the memory controller one at a time, each read charged.
        """
        out = b""
        end = va + length
        while va < end:
            take = min(end - va, PAGE_SIZE - (va & (PAGE_SIZE - 1)))
            pa, c_bit = self._translate(va, _FETCH)
            if c_bit:
                read = self.memctrl.read
                asid = self.current_asid
                out += b"".join([read(pa + i, 1, c_bit=True, asid=asid)
                                 for i in range(take)])
            else:
                out += self.memctrl.memory.read(pa, take)
            if take > 1:
                self.tlb.lookup(self.cr3_root, va >> PAGE_SHIFT, take - 1)
            va += take
        return out

    def can_fetch(self, va):
        try:
            self._translate(va, _FETCH)
            return True
        except PageFault:
            return False

    # -- privileged instructions -----------------------------------------------------

    def exec_privileged(self, op, arg, rip):
        """Execute privileged instruction ``op`` located at ``rip``.

        The fetch verifies that the encoding bytes really live at
        ``rip`` in the current address space (mapped + executable).
        After the architectural effect is applied, the checking-loop
        hook for ``op`` runs, if installed; a :class:`GateViolation`
        from the hook rolls the effect back before propagating — the
        paper's "invalid operations will be detected and prevented".
        """
        opcode = PRIV_OPCODES[op]
        fetched = self._fetch(rip, len(opcode))
        if fetched != opcode:
            raise PageFault(
                rip, execute=True, present=True,
                message="no %s encoding at %#x" % (op.value, rip),
            )
        old = self._save_priv_state(op)
        self._apply_priv(op, arg)
        if op is PrivOp.MOV_CR3:
            # The very next instruction is fetched in the *new* address
            # space; if its byte is unmapped there, execution cannot
            # continue (the paper's end-of-page placement subtlety).
            next_va = rip + len(opcode)
            try:
                self._translate(next_va, _FETCH)
            except PageFault:
                self._restore_priv_state(op, old)
                raise PageFault(
                    next_va, execute=True,
                    message="instruction after mov CR3 unreachable in new space",
                )
        hook = self.priv_post_hooks.get(op)
        site = self.priv_hook_sites.get(op)
        if hook is not None and (site is None or site == rip):
            try:
                hook(self, op, arg, old)
            except GateViolation:
                self._restore_priv_state(op, old)
                raise

    def _save_priv_state(self, op):
        return {
            "cr0": self.cr0, "cr3": self.cr3_root, "cr4": self.cr4,
            "efer": self.efer, "gdt": self.gdt_base, "idt": self.idt_base,
        }

    def _restore_priv_state(self, op, old):
        self.cr0 = old["cr0"]
        if self.cr3_root != old["cr3"]:
            self.cr3_root = old["cr3"]
            self.tlb.flush_all("mov-cr3-rollback")
        self.cr4 = old["cr4"]
        self.efer = old["efer"]
        self.gdt_base = old["gdt"]
        self.idt_base = old["idt"]

    def _apply_priv(self, op, arg):
        if op is PrivOp.MOV_CR0:
            self.cr0 = arg
        elif op is PrivOp.MOV_CR3:
            self.cr3_root = arg
            self.tlb.flush_all("mov-cr3")
        elif op is PrivOp.MOV_CR4:
            self.cr4 = arg
        elif op is PrivOp.WRMSR:
            msr, value = arg
            if msr == MSR_EFER:
                self.efer = value
        elif op is PrivOp.LGDT:
            self.gdt_base = arg
        elif op is PrivOp.LIDT:
            self.idt_base = arg
        elif op is PrivOp.VMRUN:
            raise ReproError("VMRUN must go through Cpu.vmrun")
        else:
            raise ReproError("unknown privileged op %s" % op)

    # -- world switches ------------------------------------------------------------

    # fidelint: ignore[FID004] -- priced at the dispatch loop
    def vmrun(self, vmcb, rip):
        """VMRUN: fetch-check the instruction, then enter guest mode.

        Only RAX/RIP/RSP and control state come from the VMCB; the other
        GPRs enter the guest exactly as they currently sit in the CPU
        (software — Xen or Fidelius — must have restored them).
        """
        if not self.svme_enabled:
            raise ReproError("VMRUN with EFER.SVME clear")
        if self.mode is not CpuMode.HOST:
            raise ReproError("VMRUN outside host mode")
        opcode = PRIV_OPCODES[PrivOp.VMRUN]
        fetched = self._fetch(rip, len(opcode))
        if fetched != opcode:
            raise PageFault(rip, execute=True, present=True,
                            message="no VMRUN encoding at %#x" % rip)
        hook = self.priv_post_hooks.get(PrivOp.VMRUN)
        if hook is not None:
            hook(self, PrivOp.VMRUN, vmcb, None)
        self._hsave = {
            "cr0": self.cr0, "cr3": self.cr3_root, "cr4": self.cr4,
            "efer": self.efer, "rsp": self.regs["rsp"],
        }
        self.mode = CpuMode.GUEST
        self.current_asid = vmcb.read("asid")
        self.regs["rax"] = vmcb.read("rax")
        self.regs["rsp"] = vmcb.read("rsp")

    # fidelint: ignore[FID004] -- priced at the dispatch loop
    def vmexit(self, vmcb, reason, info1=0, info2=0):
        """Hardware exit: save guest save-area state, restore host control
        state — and leave the guest GPRs live in the register file."""
        if self.mode is not CpuMode.GUEST:
            raise ReproError("VMEXIT outside guest mode")
        vmcb.set_exit(reason, info1, info2)
        vmcb.write("rax", self.regs["rax"])
        vmcb.write("rsp", self.regs["rsp"])
        self.mode = CpuMode.HOST
        self.current_asid = HOST_ASID
        hsave = self._hsave or {}
        self.cr0 = hsave.get("cr0", self.cr0)
        if "cr3" in hsave and hsave["cr3"] != self.cr3_root:
            self.cr3_root = hsave["cr3"]
        self.cr4 = hsave.get("cr4", self.cr4)
        self.efer = hsave.get("efer", self.efer)
