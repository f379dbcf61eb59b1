"""The Xen-like hypervisor.

This is the *service provider* of the paper's model: it owns VM-exit
handling, NPT management, grant tables, event channels and scheduling.
It is also the *untrusted* principal: all of its resource-touching
operations go through replaceable indirections —

* ``priv_executor``  — executes restricted privileged instructions;
* ``vmrun_executor`` — performs the VMRUN world switch;
* ``word_writer``    — writes hypervisor-managed memory words (its own
  page tables, guest NPTs, grant tables);
* ``regs_saver`` / ``regs_restorer`` — the guest register save/restore
  across an exit.

At boot these point to plain direct implementations (the baseline, the
paper's "Xen" configuration).  Installing Fidelius swaps them for gated
and shadowed versions — exactly the paper's "separating resource
accessing from policy enforcement" (Section 3.1) with no new layer of
abstraction.  Malicious-hypervisor attacks bypass the indirections on
purpose and hit the hardware directly; the question the security
evaluation asks is what happens then.
"""

from repro.common.constants import (
    EFER_SVME,
    HYPERCALL_SERVICE_CYCLES,
    MSR_EFER,
    NPT_FILL_CYCLES,
    PAGE_SIZE,
    PTE_C_BIT,
    PTE_NX,
    PTE_PRESENT,
    PTE_USER,
    PTE_WRITABLE,
    VMEXIT_ROUNDTRIP_CYCLES,
)
from repro.common.errors import ReproError, XenError
from repro.common.types import ExitReason, PrivOp, frame_addr, pfn_of
from repro.hw.pagetable import PageTableWalker
from repro.xen import hypercalls as hc
from repro.xen.event_channel import EventChannelBus
from repro.xen.grant_table import EMPTY_ENTRY, GrantEntry, GrantTable
from repro.xen.image import default_xen_image
from repro.xen.npt import NestedPageTable
from repro.xen.domain import Domain
from repro.xen.xenstore import XenStore

#: Events other components can subscribe to via ``Hypervisor.add_hook``.
HOOK_EVENTS = (
    "domain_created",
    "guest_frame_alloc",
    "guest_frame_release",
    "table_frame_release",
    "npt_table_alloc",
    "iommu_table_alloc",
    "grant_table_created",
    "domain_destroyed",
)


class _NptTableAllocator:
    """``allocate_frame`` hook bound to one domain's NPT.

    A plain class (not a closure) so a live domain graph stays
    picklable: the NPT holds this allocator for the lifetime of the
    domain.
    """

    def __init__(self, hypervisor, domain):
        self._hypervisor = hypervisor
        self._domain = domain

    def __call__(self):
        return self._hypervisor._alloc_npt_table_page(self._domain)


class Hypervisor:
    """The Xen core, booted on a :class:`~repro.hw.machine.Machine`."""

    DOM0_FRAMES = 32

    def __init__(self, machine, firmware=None):
        self.machine = machine
        self.cpu = machine.cpu
        self.firmware = firmware
        self.domains = {}
        self._next_domid = 0
        self._next_asid = 1
        self.xenstore = XenStore()
        self.events = EventChannelBus()
        self.text = None
        self.dom0 = None
        #: Optional IOMMU (the beyond-the-paper DMA protection extension).
        self.iommu = None
        #: Lazy NPT population (ablation knob; Xen's default is batched
        #: prepopulation at boot, per Section 4.3.4).
        self.lazy_npt = False
        # -- replaceable indirections (Fidelius swaps these) ------------
        self.priv_executor = self._exec_priv_direct
        self.vmrun_executor = self._exec_vmrun_direct
        self.word_writer = self._write_direct
        self.regs_saver = self._save_regs_direct
        self.regs_restorer = self._restore_regs_direct
        self._hooks = {event: [] for event in HOOK_EVENTS}
        #: The vCPU currently running in guest mode, if any.
        self.current_vcpu = None
        self._hypercall_table = {
            hc.HC_VOID: self._hc_void,
            hc.HC_GRANT_CREATE: self._hc_grant_create,
            hc.HC_GRANT_MAP: self._hc_grant_map,
            hc.HC_GRANT_UNMAP: self._hc_grant_unmap,
            hc.HC_EVTCHN_SEND: self._hc_evtchn_send,
            hc.HC_SCHED_YIELD: self._hc_sched_yield,
            hc.HC_SHUTDOWN: self._hc_shutdown,
            hc.HC_BALLOON_OUT: self._hc_balloon_out,
        }
        self._stay_in_host = False

    # -- boot -------------------------------------------------------------------------

    def boot(self):
        """Lay out the text image, enable SVM, create the management VM."""
        if self.text is not None:
            raise XenError("hypervisor already booted")
        text_frames = self.machine.allocator.alloc_many(4)
        base_va = frame_addr(text_frames[0])
        if any(text_frames[i + 1] != text_frames[i] + 1
               for i in range(len(text_frames) - 1)):
            raise XenError("text frames must be contiguous in this layout")
        self.text = default_xen_image(base_va, pages=len(text_frames))
        self.machine.memory.write(base_va, self.text.to_bytes())
        for va in self.text.page_vas():
            # Text is executable and read-only, like real Xen's.
            self.machine.walker.set_flags(
                self.machine.host_root, va,
                set_mask=0, clear_mask=PTE_NX | PTE_WRITABLE,
            )
        self.machine.tlb.flush_all("xen-boot")
        self.priv(PrivOp.WRMSR, (MSR_EFER, self.cpu.efer | EFER_SVME))
        self.priv(PrivOp.LGDT, base_va)
        self.priv(PrivOp.LIDT, base_va + 0x40)
        self.dom0 = self.create_domain("dom0", guest_frames=self.DOM0_FRAMES,
                                       sev=False, privileged=True)
        return self

    # -- hooks ---------------------------------------------------------------------------

    def add_hook(self, event, handler):
        if event not in self._hooks:
            raise XenError("unknown hook event %r" % (event,))
        self._hooks[event].append(handler)

    def _fire(self, event, *args):
        for handler in self._hooks[event]:
            handler(*args)

    # -- replaceable primitives ------------------------------------------------------------

    def priv(self, op, arg):
        """Execute a restricted privileged instruction."""
        return self.priv_executor(op, arg)

    def _exec_priv_direct(self, op, arg):
        self.cpu.exec_privileged(op, arg, rip=self.text.va_of(op))

    def _exec_vmrun_direct(self, vcpu):
        self.cpu.vmrun(vcpu.vmcb, rip=self.text.va_of(PrivOp.VMRUN))

    def write_word(self, va, data):
        """Software write to hypervisor-managed memory (identity VA==PA)."""
        self.word_writer(va, data)

    def _write_direct(self, va, data):
        self.cpu.store(va, data)

    def _save_regs_direct(self, vcpu):
        """Baseline Xen: stash all guest GPRs in hypervisor memory —
        readable and writable by any host code."""
        vcpu.saved_gprs = self.cpu.regs.copy()

    def _restore_regs_direct(self, vcpu):
        if vcpu.saved_gprs is not None:
            self.cpu.regs.load_from(vcpu.saved_gprs)
            # VMRUN loads RAX/RSP from the VMCB save area; propagate the
            # (possibly updated) software copies there, like Xen does.
            vcpu.vmcb.write("rax", vcpu.saved_gprs["rax"])
            vcpu.vmcb.write("rsp", vcpu.saved_gprs["rsp"])

    # -- domain construction ---------------------------------------------------------------

    def create_domain(self, name, guest_frames, sev=False, privileged=False,
                      vcpus=1):
        """Create a domain; with ``sev`` a fresh ASID is assigned.

        The NPT is prepopulated in a batch unless ``lazy_npt`` is set —
        the behaviour Section 4.3.4 leans on for performance.  A
        construction that fails after the NPT root exists (no free
        frame, a denied gated write) destroys the domain before the
        error propagates.
        """
        domid = self._next_domid
        self._next_domid += 1
        asid = 0
        if sev:
            asid = self._next_asid
            self._next_asid += 1
        domain = Domain(domid, name, self, guest_frames, asid=asid,
                        privileged=privileged)
        domain.npt = NestedPageTable(
            self.machine,
            allocate_frame=_NptTableAllocator(self, domain),
        )
        try:
            gt_frame = self.machine.allocator.alloc()
            domain.grant_table = GrantTable(self.machine.memory, gt_frame)
            self._fire("grant_table_created", domain, gt_frame)
            for _ in range(vcpus):
                domain.add_vcpu()
            self.domains[domid] = domain
            self._fire("domain_created", domain)
            if not self.lazy_npt:
                leaves = {}
                for gfn in range(guest_frames):
                    self._populate_gfn(domain, gfn, leaves)
        except ReproError:
            # fail closed: out of frames or a denied write must not
            # leave a half-built domain holding what it took
            self.destroy_domain(domain)
            raise
        return domain

    # -- IOMMU (extension) -------------------------------------------------------

    def enable_iommu(self):
        """Install an IOMMU in front of device DMA.  Its device table is
        hypervisor-managed memory: under Fidelius it gets write-protected
        and policy-checked exactly like a guest NPT."""
        from repro.hw.iommu import Iommu, ProtectedDmaEngine
        if self.iommu is not None:
            raise XenError("IOMMU already enabled")
        self.iommu = Iommu(NestedPageTable(
            self.machine, allocate_frame=self._alloc_iommu_table_page))
        self.machine.dma = ProtectedDmaEngine(self.machine.memctrl,
                                              self.iommu)
        return self.iommu

    def _alloc_iommu_table_page(self):
        pfn = self.machine.allocator.alloc()
        # fidelint: ignore[FID001] -- zeroing a fresh IOMMU table frame
        # before any table entry points at it.
        self.machine.memory.zero_frame(pfn)
        if self.iommu is not None:
            self.iommu.table.table_pfns.add(pfn)
        self._fire("iommu_table_alloc", pfn)
        return pfn

    def iommu_map(self, bus_gfn, hpfn, writable=True):
        """Map a frame into the device's bus address space, through the
        software (gated, policy-checked) write path."""
        if self.iommu is None:
            raise XenError("no IOMMU enabled")
        from repro.common.constants import (
            PTE_PRESENT, PTE_USER, PTE_WRITABLE as W,
        )
        flags = PTE_PRESENT | PTE_USER | (W if writable else 0)
        walker = PageTableWalker(
            self.machine.memory,
            alloc_frame=self._alloc_iommu_table_page,
            write_word=lambda pa, value:
                self.write_word(pa, value.to_bytes(8, "little")),
        )
        walker.map(self.iommu.table.root_pfn, bus_gfn * PAGE_SIZE, hpfn,
                   flags)

    def iommu_unmap(self, bus_gfn):
        if self.iommu is None:
            raise XenError("no IOMMU enabled")
        entry_pa = self.iommu.table.entry_pa(bus_gfn * PAGE_SIZE)
        self.write_word(entry_pa, bytes(8))

    def _alloc_npt_table_page(self, domain):
        pfn = self.machine.allocator.alloc()
        # fidelint: ignore[FID001] -- zeroing a fresh NPT table frame
        # before any table entry points at it.
        self.machine.memory.zero_frame(pfn)
        if domain.npt is not None:
            domain.npt.table_pfns.add(pfn)
        self._fire("npt_table_alloc", domain, pfn)
        return pfn

    def alloc_guest_frame(self, domain):
        # Deliberately no scrub here: vanilla Xen recycles frames as-is
        # and relies on the previous owner's teardown path — which is
        # exactly the residue channel Fidelius's release scrubbing (and
        # Section 4.3.8's page revocation) closes.
        pfn = self.machine.allocator.alloc()
        domain.owned_hpfns.add(pfn)
        self._fire("guest_frame_alloc", domain, pfn)
        return pfn

    def _populate_gfn(self, domain, gfn, leaves=None):
        hpfn = self.alloc_guest_frame(domain)
        self.fill_npt(domain, gfn, hpfn, leaves=leaves)
        return hpfn

    # -- NPT management (software path) ---------------------------------------------------------

    def _software_npt_walker(self, domain):
        return PageTableWalker(
            self.machine.memory,
            alloc_frame=lambda: self._alloc_npt_table_page(domain),
            write_word=lambda pa, value:
                self.write_word(pa, value.to_bytes(8, "little")),
        )

    def fill_npt(self, domain, gfn, hpfn, writable=True, c_bit=False,
                 leaves=None):
        """Install GPA->HPA through the software (gated) write path.

        A batch passes one ``leaves`` dict for all its gfns, so each
        leaf table is located once (:meth:`PageTableWalker.map`).
        """
        flags = PTE_PRESENT | PTE_USER
        if writable:
            flags |= PTE_WRITABLE
        if c_bit:
            flags |= PTE_C_BIT
        walker = self._software_npt_walker(domain)
        walker.map(domain.npt.root_pfn, gfn * PAGE_SIZE, hpfn, flags,
                   leaves=leaves)

    def set_npt_flags(self, domain, gfn, set_mask=0, clear_mask=0):
        entry_pa = domain.npt.entry_pa(gfn * PAGE_SIZE)
        entry = self.machine.memory.read_u64(entry_pa)
        new = (entry | set_mask) & ~clear_mask
        self.write_word(entry_pa, new.to_bytes(8, "little"))

    def unmap_npt(self, domain, gfn):
        entry_pa = domain.npt.entry_pa(gfn * PAGE_SIZE)
        self.write_word(entry_pa, bytes(8))

    # -- exit / entry path ----------------------------------------------------------------------

    def inject_interrupt(self, vcpu, vector):
        """Queue an interrupt for delivery at the next VMRUN.

        The hypervisor writes the VMCB's ``event_injection`` field —
        always legitimate, which is why the exit-reason policies keep
        that one field writable on every exit (Section 5.1)."""
        if not 0 <= vector <= 255:
            raise XenError("bad interrupt vector %r" % (vector,))
        vcpu.vmcb.write("event_injection", 0x8000_0000 | vector)

    @staticmethod
    def _deliver_pending_event(vcpu):
        """VMRUN side: hardware injects the queued event into the guest."""
        pending = vcpu.vmcb.read("event_injection")
        if pending & 0x8000_0000:
            vcpu.delivered_interrupts.append(pending & 0xFF)
            vcpu.vmcb.write("event_injection", 0)

    def enter_guest(self, vcpu):
        if vcpu.domain.dying:
            raise XenError("domain %s is shut down" % vcpu.domain.name)
        self.regs_restorer(vcpu)
        self.vmrun_executor(vcpu)
        self._deliver_pending_event(vcpu)
        vcpu.in_guest = True
        vcpu.domain.ledger.vmruns += 1
        vcpu.entry_cycles = self.machine.cycles.total
        self.current_vcpu = vcpu

    def guest_exit(self, vcpu, reason, info1=0, info2=0, stay_in_host=False):
        """The full exit -> handle -> re-entry round trip."""
        ledger = vcpu.domain.ledger
        ledger.vmexits += 1
        ledger.cycles_in_guest += self.machine.cycles.total \
            - vcpu.entry_cycles
        self.machine.cycles.charge(VMEXIT_ROUNDTRIP_CYCLES, "vmexit-roundtrip")
        self.cpu.vmexit(vcpu.vmcb, reason, info1, info2)
        vcpu.in_guest = False
        self.current_vcpu = None
        self.regs_saver(vcpu)
        self._stay_in_host = stay_in_host
        self.handle_exit(vcpu)
        if not self._stay_in_host:
            self.enter_guest(vcpu)

    def handle_exit(self, vcpu):
        reason = vcpu.vmcb.exit_reason
        if reason is ExitReason.HYPERCALL:
            self._handle_hypercall(vcpu)
        elif reason is ExitReason.CPUID:
            self._handle_cpuid(vcpu)
        elif reason is ExitReason.NPF:
            self._handle_npf(vcpu)
        elif reason is ExitReason.MSR:
            self._handle_msr(vcpu)
        elif reason is ExitReason.HLT:
            self._stay_in_host = True
        elif reason is ExitReason.INTR:
            # External interrupt (e.g. the scheduler's timer tick): the
            # host handles it and decides who runs next.
            self._stay_in_host = True
        else:
            raise XenError("unhandled exit reason %r" % (reason,))

    def _handle_hypercall(self, vcpu):
        # Handlers read and write the *software save area* — exactly like
        # real Xen operating on its stack copy of the guest registers.
        # The entry path restores the register file from it.
        self.machine.cycles.charge(HYPERCALL_SERVICE_CYCLES, "hypercall")
        regs = vcpu.saved_gprs
        handler = self._hypercall_table.get(regs["rax"])
        if handler is None:
            regs["rax"] = hc.E_NOSYS
            return
        result = handler(vcpu, regs["rdi"], regs["rsi"], regs["rdx"],
                         regs["r10"], regs["r8"])
        regs["rax"] = result

    def register_hypercall(self, nr, handler):
        """Install an extra hypercall (Fidelius adds pre_sharing_op etc.)."""
        self._hypercall_table[nr] = handler

    def _handle_cpuid(self, vcpu):
        regs = vcpu.saved_gprs
        leaf = regs["rax"]
        regs["rax"] = 0x00A20F10  # family/model/stepping-ish
        regs["rbx"] = leaf & 0xFFFF
        regs["rcx"] = 0x5345_5600  # 'SEV\0'
        regs["rdx"] = 0x1

    def _handle_npf(self, vcpu):
        self.machine.cycles.charge(NPT_FILL_CYCLES, "npt-fill")
        gpa = vcpu.vmcb.read("exitinfo2")
        domain = vcpu.domain
        gfn = pfn_of(gpa)
        if gfn >= domain.guest_frames:
            raise XenError("guest %s touched gpa %#x beyond its memory"
                           % (domain.name, gpa))
        if not domain.npt.maps(gpa):
            self._populate_gfn(domain, gfn)

    def _handle_msr(self, vcpu):
        regs = vcpu.saved_gprs
        regs["rax"] = 0
        regs["rdx"] = 0

    # -- hypercall implementations -----------------------------------------------------------------

    def _hc_void(self, vcpu, *args):
        return hc.E_OK

    def _hc_grant_create(self, vcpu, target_domid, gfn, readonly, *_):
        domain = vcpu.domain
        if target_domid not in self.domains:
            return hc.E_INVAL
        if gfn >= domain.guest_frames:
            return hc.E_INVAL
        return self.grant_create(domain, target_domid, gfn, bool(readonly))

    def grant_create(self, domain, target_domid, gfn, readonly):
        """Shared implementation: the *hypervisor* fills the grant entry
        (Section 2.3), through the write-protectable software path."""
        ref = domain.grant_table.find_free_ref()
        entry = GrantEntry(permit=True, readonly=readonly,
                           target_domid=target_domid, gfn=gfn)
        # fidelint: ignore[FID002] -- the software path: word_writer is
        # the type 1 gate under Fidelius, so this write *is* gated.
        domain.grant_table.write_via(ref, entry, self.word_writer)
        return ref

    def _hc_grant_map(self, vcpu, granter_domid, ref, dest_gfn, want_write, *_):
        return self.grant_map(vcpu.domain, granter_domid, ref, dest_gfn,
                              bool(want_write))

    def grant_map(self, caller, granter_domid, ref, dest_gfn, want_write):
        granter = self.domains.get(granter_domid)
        if granter is None or dest_gfn >= caller.guest_frames:
            return hc.E_INVAL
        try:
            entry = granter.grant_table.read(ref)
        except Exception:
            return hc.E_INVAL
        if not entry.permit or entry.target_domid != caller.domid:
            return hc.E_PERM
        if want_write and entry.readonly:
            return hc.E_PERM
        try:
            hpa = granter.npt.hpa_of(entry.gfn * PAGE_SIZE)
        except Exception:
            return hc.E_INVAL
        self.fill_npt(caller, dest_gfn, pfn_of(hpa), writable=want_write)
        return hc.E_OK

    def _hc_grant_unmap(self, vcpu, dest_gfn, *_):
        return self.grant_unmap(vcpu.domain, dest_gfn)

    def grant_unmap(self, caller, dest_gfn):
        if dest_gfn >= caller.guest_frames:
            return hc.E_INVAL
        self.unmap_npt(caller, dest_gfn)
        return hc.E_OK

    def grant_revoke(self, domain, ref):
        """Granter-side removal of a grant entry."""
        # fidelint: ignore[FID002] -- gated software path (word_writer).
        domain.grant_table.write_via(ref, EMPTY_ENTRY, self.word_writer)

    def _hc_evtchn_send(self, vcpu, port, *_):
        try:
            self.events.send(port)
        except XenError:
            return hc.E_INVAL
        return hc.E_OK

    def _hc_sched_yield(self, vcpu, *_):
        self._stay_in_host = True
        return hc.E_OK

    def _hc_balloon_out(self, vcpu, first_gfn, nframes, *_):
        """Ballooning: the guest returns [first_gfn, first_gfn+nframes)
        to the host's free pool."""
        domain = vcpu.domain
        if nframes <= 0 or first_gfn + nframes > domain.guest_frames:
            return hc.E_INVAL
        for gfn in range(first_gfn, first_gfn + nframes):
            try:
                hpa = domain.npt.hpa_of(gfn * PAGE_SIZE)
            except Exception:
                continue  # not populated; nothing to return
            hpfn = pfn_of(hpa)
            if hpfn not in domain.owned_hpfns:
                continue  # grant-mapped foreign page: not the guest's to give
            self.unmap_npt(domain, gfn)
            domain.owned_hpfns.discard(hpfn)
            self._fire("guest_frame_release", domain, hpfn)
            self.machine.allocator.free(hpfn)
        return hc.E_OK

    def _hc_shutdown(self, vcpu, *_):
        self.destroy_domain(vcpu.domain)
        self._stay_in_host = True
        return hc.E_OK

    # -- teardown ----------------------------------------------------------------------------------------

    def destroy_domain(self, domain):
        """Tear a domain down and release every frame it owned: its RAM
        (through the release hooks, so Fidelius scrubs protected pages),
        its NPT table pages and its grant table."""
        domain.dying = True
        self._fire("domain_destroyed", domain)
        allocator = self.machine.allocator
        for hpfn in sorted(domain.owned_hpfns):
            self._fire("guest_frame_release", domain, hpfn)
            if allocator.is_allocated(hpfn):
                allocator.free(hpfn)
        domain.owned_hpfns.clear()
        for pfn in sorted(domain.npt.all_table_pfns()):
            self._fire("table_frame_release", domain, pfn)
            if allocator.is_allocated(pfn):
                allocator.free(pfn)
        if domain.grant_table is not None:
            gt_frame = domain.grant_table.frame_pfn
            self._fire("table_frame_release", domain, gt_frame)
            if allocator.is_allocated(gt_frame):
                allocator.free(gt_frame)
        self.domains.pop(domain.domid, None)

    # -- plain inspection helpers (legitimately needed; also the attack surface) --------------------------

    def guest_frame_hpfn(self, domain, gfn):
        return pfn_of(domain.npt.hpa_of(gfn * PAGE_SIZE))
