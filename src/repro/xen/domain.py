"""Domains, virtual CPUs and the guest execution context.

Guest "programs" are Python code driving a :class:`GuestContext`: every
memory access goes through the NPT and the memory controller with the
guest's ASID and C-bit choices, every trap runs the full
VMEXIT -> hypervisor -> VMRUN path (with whatever boundary hooks —
i.e. Fidelius — are installed).  The context enters guest mode lazily
on first use, so test and example code reads naturally.
"""

from dataclasses import dataclass

from repro.common.constants import (
    HOST_ASID,
    PAGE_MASK,
    PAGE_SHIFT,
    PAGE_SIZE,
    PTE_C_BIT,
    PTE_PFN_MASK,
)
from repro.common.errors import NestedPageFault, XenError
from repro.common.types import CpuMode, ExitReason
from repro.hw.vmcb import Vmcb


@dataclass
class GuestLedger:
    """Per-guest performance accounting that outlives one incarnation.

    The hypervisor maintains it on every world switch (VMRUN count,
    VMEXIT count, cycles spent with the CPU in guest mode).
    ``tlb_epoch`` counts the incarnations whose TLB started cold: it
    begins at 0 for a freshly launched guest and is bumped — never
    reset — each time the guest is rebuilt on a (possibly different)
    host by migration or snapshot restore.  The whole ledger travels
    inside the :class:`~repro.core.migration.MigrationPackage`, so a
    restored guest's :meth:`Domain.perf_stats` keeps telling the truth
    about its lifetime instead of restarting from zero.
    """

    vmruns: int = 0
    vmexits: int = 0
    cycles_in_guest: int = 0
    tlb_epoch: int = 0

    def as_dict(self):
        return {"vmruns": self.vmruns, "vmexits": self.vmexits,
                "cycles_in_guest": self.cycles_in_guest,
                "tlb_epoch": self.tlb_epoch}

    def export(self):
        """Canonical wire form for a migration/snapshot package."""
        return tuple(sorted(self.as_dict().items()))

    @classmethod
    def from_export(cls, exported):
        return cls(**dict(exported))


class VirtualCpu:
    """One virtual CPU: its VMCB plus Xen's software register save area.

    ``saved_gprs`` models the in-hypervisor-memory copy of the guest's
    general-purpose registers that Xen keeps across an exit — readable
    and writable by any hypervisor code, which is the register attack
    surface Fidelius's shadowing closes.
    """

    def __init__(self, domain, index):
        self.domain = domain
        self.index = index
        self.vmcb = Vmcb(asid=domain.asid, nested_cr3=domain.npt.root_pfn)
        self.saved_gprs = None
        self.halted = False
        self.in_guest = False
        #: cycle-counter reading at the last guest entry, for the
        #: domain ledger's in-guest cycle attribution
        self.entry_cycles = 0
        #: Interrupt vectors delivered into the guest (via the VMCB's
        #: event_injection field, consumed on entry).
        self.delivered_interrupts = []


class Domain:
    """One virtual machine (guests and the management domain alike)."""

    def __init__(self, domid, name, hypervisor, guest_frames, asid=0,
                 privileged=False):
        self.domid = domid
        self.name = name
        self.hypervisor = hypervisor
        self.guest_frames = guest_frames
        self.asid = asid
        self.privileged = privileged
        self.sev_handle = None
        self.npt = None  # installed by the hypervisor at construction
        self.grant_table = None
        #: Guest-page-table C-bits: the set of guest frame numbers the
        #: guest has chosen to encrypt with its K_vek (takes priority
        #: over the NPT-level SME C-bit, as in Figure 1 of the paper).
        self.encrypted_gfns = set()
        #: Host frames this domain *owns* (its RAM).  Frames mapped via
        #: grants belong to the granter and never appear here — which is
        #: what keeps teardown from scrubbing a peer's memory.
        self.owned_hpfns = set()
        self.vcpus = []
        self.dying = False
        #: Lifetime performance accounting; round-tripped by migration
        #: and snapshot/restore (see :class:`GuestLedger`).
        self.ledger = GuestLedger()

    @property
    def sev_enabled(self):
        return self.asid != HOST_ASID

    def perf_stats(self):
        """This guest's lifetime accounting, across incarnations."""
        return self.ledger.as_dict()

    def add_vcpu(self):
        vcpu = VirtualCpu(self, len(self.vcpus))
        self.vcpus.append(vcpu)
        return vcpu

    @property
    def vcpu0(self):
        return self.vcpus[0]

    def gfn_encrypted(self, gfn):
        return gfn in self.encrypted_gfns

    def context(self, vcpu_index=0):
        """A guest execution context bound to one virtual CPU.

        A guest "configured with 2 virtual cores" (the paper's setup)
        gets one context per vCPU; on the single physical CPU they
        time-share, each re-entering through the full exit/entry
        boundary — so per-vCPU shadow state is genuinely exercised.
        """
        return GuestContext(self, self.vcpus[vcpu_index])


class GuestContext:
    """The guest-side API: memory, hypercalls, CPUID, C-bit control."""

    def __init__(self, domain, vcpu=None):
        self._domain = domain
        self._vcpu = vcpu or domain.vcpu0
        self._hv = domain.hypervisor
        self._machine = domain.hypervisor.machine

    @property
    def vcpu(self):
        return self._vcpu

    # -- mode management ---------------------------------------------------------

    def _ensure_guest(self):
        cpu = self._machine.cpu
        vcpu = self._vcpu
        if cpu.mode is CpuMode.GUEST:
            running = self._hv.current_vcpu
            if running is not vcpu:
                raise XenError("another vCPU is on the CPU")
            return running
        self._hv.enter_guest(vcpu)
        return vcpu

    def _trap(self, reason, info1=0, info2=0):
        """Take a VM exit, let the host stack run, come back to guest."""
        vcpu = self._ensure_guest()
        self._hv.guest_exit(vcpu, reason, info1, info2)
        return self._machine.cpu.regs["rax"]

    # -- memory ------------------------------------------------------------------

    def _effective_encryption(self, gfn, npt_c_bit):
        """Guest page-table C-bit takes priority over the NPT (SME) C-bit."""
        if self._domain.gfn_encrypted(gfn):
            return True, self._domain.asid
        if npt_c_bit:
            return True, HOST_ASID
        return False, HOST_ASID

    def _translate(self, gpa, write):
        """Second-level translation with NPF exits handled inline."""
        for _ in range(3):
            try:
                return self._domain.npt.translate(gpa, write=write)
            except NestedPageFault:
                self._trap(ExitReason.NPF, info1=int(write), info2=gpa)
        raise XenError("NPT violation at gpa=%#x not resolved by host" % gpa)

    def read(self, gpa, length):
        self._ensure_guest()
        out = bytearray()
        while length:
            take = min(length, PAGE_SIZE - (gpa & (PAGE_SIZE - 1)))
            translation = self._translate(gpa, write=False)
            c_bit, asid = self._effective_encryption(gpa >> 12, translation.c_bit)
            out.extend(self._machine.memctrl.read(
                translation.pa, take, c_bit=c_bit, asid=asid))
            gpa += take
            length -= take
        return bytes(out)

    def write(self, gpa, data):
        self._ensure_guest()
        view = memoryview(data)
        while view.nbytes:
            take = min(view.nbytes, PAGE_SIZE - (gpa & (PAGE_SIZE - 1)))
            translation = self._translate(gpa, write=True)
            c_bit, asid = self._effective_encryption(gpa >> 12, translation.c_bit)
            self._machine.memctrl.write(
                translation.pa, bytes(view[:take]), c_bit=c_bit, asid=asid)
            gpa += take
            view = view[take:]

    def _translate_run(self, gpa, pages, write, leaves):
        """:meth:`NestedPageTable.translate_run` with NPF exits handled
        inline, one page at a time as in :meth:`_translate`.  A trap
        empties the batch's leaf-table memo ``leaves``: the host may
        rewrite the NPT while it handles the fault."""
        for _ in range(3):
            try:
                return self._domain.npt.translate_run(gpa, pages, write,
                                                      leaves)
            except NestedPageFault:
                leaves.clear()
                self._trap(ExitReason.NPF, info1=int(write), info2=gpa)
        raise XenError("NPT violation at gpa=%#x not resolved by host" % gpa)

    def _pieces(self, gpa, length, write, leaves):
        """Translate a GPA range into memory-controller pieces.

        Translates the range one leaf-table run at a time, resolves the
        effective encryption of each page, and coalesces physically
        contiguous pieces that share one ``(c_bit, asid)`` so a span of
        contiguously mapped guest pages reaches the memory controller as
        a single wide access.
        """
        pieces = []
        end = gpa + length
        while gpa < end:
            pages = ((end - 1) >> PAGE_SHIFT) - (gpa >> PAGE_SHIFT) + 1
            for entry in self._translate_run(gpa, pages, write, leaves):
                take = min(end, (gpa | PAGE_MASK) + 1) - gpa
                c_bit, asid = self._effective_encryption(
                    gpa >> PAGE_SHIFT, entry & PTE_C_BIT)
                pa = (entry & PTE_PFN_MASK) | (gpa & PAGE_MASK)
                gpa += take
                if pieces:
                    last_pa, last_len, last_c, last_asid = pieces[-1]
                    if (last_pa + last_len == pa and last_c == c_bit
                            and last_asid == asid):
                        pieces[-1] = (last_pa, last_len + take, c_bit, asid)
                        continue
                pieces.append((pa, take, c_bit, asid))
        return pieces

    def batch(self, ops):
        """Execute a span of guest memory operations in one call.

        ``ops`` is a sequence of guest-level batched operations::

            ("r", gpa, length)   -> bytes read
            ("w", gpa, data)     -> None
            ("h", gpa, length)   -> sha256 digest of the range

        Returns a list of results aligned with ``ops``.  Each operation
        is translated one leaf-table run at a time, and the whole list
        is handed to
        :meth:`repro.hw.memctrl.MemoryController.run_batch` as one
        batched call, so a guest program that phrases a round as a few
        ``batch`` calls pays two Python calls per span instead of two
        per page.  Each leaf table is located once per call, for all
        its operations, until an NPF trap.

        Equivalence with the per-access path (:meth:`read`/
        :meth:`write` in the same operation order) is exact — same
        bytes, same cycle ledger — because the memory controller walks
        the same cache lines in the same order either way and the cycle
        ledger is order-free.  The one sequencing difference: each
        operation's translations are resolved *before* its data access
        (rather than interleaved page by page), so a nested page fault
        taken mid-operation sees the state as of the start of that
        operation's data phase.  Batches whose NPF handling depends on
        partially completed data writes should use the per-access API.
        """
        self._ensure_guest()
        pieces_of = self._pieces
        leaves = {}
        mc_ops = []
        for op in ops:
            kind = op[0]
            if kind == "r" or kind == "h":
                mc_ops.append((kind, pieces_of(op[1], op[2], False, leaves)))
            elif kind == "w":
                data = op[2]
                mc_ops.append((kind, pieces_of(op[1], len(data), True,
                                               leaves), data))
            else:
                raise XenError("unknown guest batch op kind %r" % (kind,))
        return self._machine.memctrl.run_batch(mc_ops)

    def set_page_encrypted(self, gfn, encrypted=True):
        """Set/clear the C-bit in the guest's page tables for ``gfn``."""
        if encrypted:
            self._domain.encrypted_gfns.add(gfn)
        else:
            self._domain.encrypted_gfns.discard(gfn)

    # -- traps ---------------------------------------------------------------------

    def hypercall(self, nr, arg1=0, arg2=0, arg3=0, arg4=0, arg5=0):
        """Issue a hypercall; returns the value the host left in RAX."""
        self._ensure_guest()
        regs = self._machine.cpu.regs
        regs["rax"] = nr
        regs["rdi"] = arg1
        regs["rsi"] = arg2
        regs["rdx"] = arg3
        regs["r10"] = arg4
        regs["r8"] = arg5
        return self._trap(ExitReason.HYPERCALL)

    def cpuid(self, leaf):
        self._ensure_guest()
        regs = self._machine.cpu.regs
        regs["rax"] = leaf
        regs["rcx"] = 0
        self._trap(ExitReason.CPUID)
        return (regs["rax"], regs["rbx"], regs["rcx"], regs["rdx"])

    def rdmsr(self, msr):
        self._ensure_guest()
        regs = self._machine.cpu.regs
        regs["rcx"] = msr
        self._trap(ExitReason.MSR, info1=0)
        return regs["rax"] | (regs["rdx"] << 32)

    def take_interrupts(self):
        """Vectors delivered to this vCPU since the last call."""
        vcpu = self._vcpu
        delivered, vcpu.delivered_interrupts = \
            vcpu.delivered_interrupts, []
        return delivered

    def halt(self):
        self._ensure_guest()
        self._vcpu.halted = True
        vcpu = self._vcpu
        self._hv.guest_exit(vcpu, ExitReason.HLT, stay_in_host=True)

    # -- convenience -----------------------------------------------------------------

    def memset(self, gpa, value, length):
        self.write(gpa, bytes([value]) * length)

    def copy(self, dst_gpa, src_gpa, length):
        """An in-guest memcpy (used by the micro benchmark of §7.2)."""
        self.write(dst_gpa, self.read(src_gpa, length))
