"""Fidelius: the trusted sibling context (paper Sections 3-5).

One :class:`Fidelius` instance retrofits a booted Xen host.  After
``install()`` (the late-launch of Section 4.3.1):

* the hypervisor's page-table-pages, every guest NPT and every grant
  table are read-only to the hypervisor; updates flow through the type 1
  gate where PIT/GIT policies run;
* the VMCB and guest registers of protected guests are shadowed across
  every exit and verified against exit-reason policies before re-entry
  (the software SEV-ES);
* the restricted privileged instructions exist exactly once, in
  Fidelius's text, guarded by checking loops (type 2 gates); VMRUN and
  ``mov CR3`` are unmapped and only executable inside type 3 gates;
* the SEV firmware only accepts commands from inside a type 3 gate, and
  the SEV metadata lives in pages unmapped from the hypervisor;
* the ``pre_sharing_op`` hypercall exists for guests to declare sharing
  contexts into the GIT.
"""

from repro.common.constants import (
    CR0_PG,
    CR0_WP,
    CR4_SMEP,
    EFER_NXE,
    EFER_SVME,
    MSR_EFER,
    SEV_METADATA_PAGES,
    SHADOW_AREA_PAGES,
)
from repro.common.errors import (
    GateViolation,
    PolicyViolation,
    ReproError,
    SevError,
)
from repro.common.types import Owner, PageUsage, PrivOp, pfn_of
from repro.core import isolation
from repro.core.binscan import measure_text
from repro.core.gates import GateKeeper
from repro.core.git import GitEntry, GrantInfoTable
from repro.core.pit import PageInfoTable
from repro.core.policies import WritePolicyEngine
from repro.core.shadow import ShadowKeeper
from repro.xen import hypercalls as hc
from repro.xen.image import default_fidelius_image


class Fidelius:
    """The Fidelius trusted context for one host."""

    def __init__(self, machine, hypervisor, firmware):
        self.machine = machine
        self.hypervisor = hypervisor
        self.firmware = firmware
        self.installed = False
        #: True when running on SEV-ES hardware (state protection is
        #: the hardware's job; Fidelius keeps everything else).
        self.hardware_es = False
        #: Tamper-evident log of everything Fidelius blocked or noted.
        self.audit = []
        self._audit_digests = []
        self._audit_head = bytes(32)
        self.protected_domains = set()
        #: Domain ids mid-teardown that were protected: their frame
        #: releases must still scrub even after the enrollment is gone.
        self._dying_protected = set()
        self.valid_roots = set()
        self.text_image = None
        self.text_pfns = []
        self.shadow_area_pfns = []
        self.sev_metadata_pfns = []
        self.xen_measurement = None
        self.pit = None
        self.git = None
        #: SEV metadata (handles, nonces, owner keys) — see
        #: ``_sync_sev_metadata`` for the in-memory (unmapped) copy.
        self.sev_meta = {}
        #: Idempotency registry for RECEIVE: package import-key -> domid,
        #: so a replayed migration package cannot mint a duplicate domain.
        self.received_imports = {}
        self.gates = GateKeeper(self)
        self.shadow = ShadowKeeper(self)
        self.write_policy = WritePolicyEngine(self)
        self._write_once_regions = []
        #: Iago defence (Section 6.2): per-hypercall validators checking
        #: the hypervisor's return value before VMRUN re-enters.
        self.return_validators = {}
        self._install_snapshot = None

    def register_return_validator(self, hypercall_nr, validator):
        """Install a policy checking the hypervisor's return value for
        one hypercall before the guest re-enters (Iago defence)."""
        self.return_validators[hypercall_nr] = validator

    # ------------------------------------------------------------------ install

    def install(self):
        """Late launch: measure, isolate, rewrite, take over the gates."""
        if self.installed:
            raise ReproError("Fidelius already installed")
        machine = self.machine
        hypervisor = self.hypervisor
        if hypervisor.text is None:
            raise ReproError("install Fidelius after the hypervisor boots")

        # 1. Measure the hypervisor's code for remote attestation.
        self.xen_measurement = measure_text(machine, hypervisor.text)

        # 2. Fidelius text: monopoly copies of the privileged instructions.
        self.text_pfns = self._alloc_contiguous(2)
        base_va = self.text_pfns[0] << 12
        self.text_image = default_fidelius_image(base_va, pages=2)
        machine.memory.write(base_va, self.text_image.to_bytes())

        # 3. Private pages: shadow area and SEV metadata.
        self.shadow_area_pfns = machine.allocator.alloc_many(SHADOW_AREA_PAGES)
        self.sev_metadata_pfns = machine.allocator.alloc_many(SEV_METADATA_PAGES)

        # 4. PIT and GIT, in Fidelius-owned frames.
        self.pit = PageInfoTable(machine, machine.allocator.alloc)
        self.git = GrantInfoTable(machine, machine.allocator.alloc)

        # 5. Classify the world, then seal it.
        isolation.classify_world(self)
        isolation.map_fidelius_text(self)
        for pfn in self.shadow_area_pfns + self.sev_metadata_pfns:
            isolation.unmap_frame(machine, pfn)
        isolation.write_protect_world(self)
        isolation.rewrite_hypervisor_binary(self)

        # 6. Arm the CPU: SMEP on, then hooks and the fault handler.
        self._exec_at_fidelius(PrivOp.MOV_CR4, machine.cpu.cr4 | CR4_SMEP)
        self._install_hooks()

        # 7. Take over the hypervisor's indirections.
        hypervisor.priv_executor = self._gated_priv
        hypervisor.vmrun_executor = self._gated_vmrun
        hypervisor.word_writer = self.gates.guarded_write
        self._install_exit_boundary()
        hypervisor.add_hook("npt_table_alloc", self._on_npt_table_alloc)
        hypervisor.add_hook("iommu_table_alloc", self._on_iommu_table_alloc)
        hypervisor.add_hook("guest_frame_alloc", self._on_guest_frame_alloc)
        hypervisor.add_hook("guest_frame_release", self._on_guest_frame_release)
        hypervisor.add_hook("table_frame_release", self._on_table_frame_release)
        hypervisor.add_hook("grant_table_created", self._on_grant_table_created)
        hypervisor.add_hook("domain_destroyed", self._on_domain_destroyed)
        hypervisor.register_hypercall(hc.HC_PRE_SHARING, self._hc_pre_sharing)
        hypervisor.register_hypercall(hc.HC_ENCRYPT_FREE_PAGES,
                                      self._hc_encrypt_free_pages)

        # 8. Seal the firmware interface and initialize the platform.
        self.valid_roots = {machine.host_root}
        self.firmware.gate_check = self._fw_gate_check
        if self.firmware.platform_state.name == "UNINIT":
            with self.gates.firmware_gate():
                self.firmware.init()
        self.installed = True
        self.audit_event("installed",
                         measurement=self.xen_measurement.hex()[:16])
        return self

    def _install_exit_boundary(self):
        """Take over the exit/entry boundary.

        On plain-SEV hardware, Fidelius shadows and verifies guest state
        itself (Section 4.2.1).  On SEV-ES hardware — the forward
        configuration the paper anticipates ("shadowing VMCB and
        registers can be regarded as a software version of SEV-ES,
        while others will solve the remaining issues") — the hardware
        already protects the state, so Fidelius keeps only its Iago
        return-value policy on the entry path and saves the 661-cycle
        shadow round trip per exit.
        """
        hypervisor = self.hypervisor
        boundary = getattr(hypervisor, "sev_es_boundary", None)
        if boundary is None:
            hypervisor.regs_saver = self.shadow.on_exit
            hypervisor.regs_restorer = self.shadow.pre_entry
            return
        self.hardware_es = True

        def restorer(vcpu):
            vmsa = boundary._vmsas.get(vcpu)
            boundary.pre_entry(vcpu)
            if vmsa is not None and vcpu.domain in self.protected_domains:
                self.shadow._check_iago(vcpu, vmsa[0], vmsa[1])

        hypervisor.regs_saver = boundary.on_exit
        hypervisor.regs_restorer = restorer

    def _alloc_contiguous(self, count):
        allocator = self.machine.allocator
        for _ in range(64):
            pfns = allocator.alloc_many(count)
            if all(pfns[i + 1] == pfns[i] + 1 for i in range(count - 1)):
                return pfns
            for pfn in pfns:
                allocator.free(pfn)
        raise ReproError("could not allocate contiguous frames")

    def _exec_at_fidelius(self, op, arg):
        self.machine.cpu.exec_privileged(
            op, arg, rip=self.text_image.va_of(op))

    # ------------------------------------------------------------------ audit

    def audit_event(self, kind, **details):
        """Append to the audit log and extend its tamper-evidence chain.

        Every entry is hash-chained onto the previous head, so a
        compromised hypervisor that later gains a write primitive cannot
        silently rewrite history — it can only truncate, which
        ``verify_audit_chain`` also exposes via the stored head.
        """
        import hashlib
        self.audit.append((kind, details))
        h = hashlib.sha256()
        h.update(self._audit_head)
        h.update(repr((kind, sorted(details.items()))).encode())
        self._audit_head = h.digest()
        self._audit_digests.append(self._audit_head)

    @property
    def audit_head(self):
        """The current chain head (what a verifier would pin)."""
        return self._audit_head

    def verify_audit_chain(self, expected_head=None):
        """Recompute the chain over the stored entries; returns True if
        it is internally consistent and (optionally) ends at
        ``expected_head``."""
        import hashlib
        head = bytes(32)
        for index, (kind, details) in enumerate(self.audit):
            h = hashlib.sha256()
            h.update(head)
            h.update(repr((kind, sorted(details.items()))).encode())
            head = h.digest()
            if self._audit_digests[index] != head:
                return False
        if expected_head is not None and head != expected_head:
            return False
        return head == self._audit_head

    def audit_kinds(self):
        return [kind for kind, _ in self.audit]

    def stats(self):
        """Operational counters for dashboards and tests: gate
        crossings, shadow round trips, and everything blocked."""
        from collections import Counter
        events = self.machine.cycles.events
        audit_counts = Counter(kind for kind, _ in self.audit)
        return {
            "gate1_crossings": events.get("gate1", 0),
            "gate2_checks": events.get("gate2", 0),
            "gate3_crossings": events.get("gate3", 0),
            "shadow_roundtrips": events.get("shadow-verify", 0),
            "denials": audit_counts.get("denied", 0),
            "faults_blocked": audit_counts.get("fault-blocked", 0),
            "vmcb_tampers_detected": audit_counts.get("vmcb-tamper", 0),
            "iago_blocked": audit_counts.get("iago-blocked", 0),
            "protected_domains": len(self.protected_domains),
            "audit_entries": len(self.audit),
        }

    def protected_domids(self):
        return {domain.domid for domain in self.protected_domains}

    # ------------------------------------------------------------------ gates / hooks

    def exec_monopolized(self, op, arg):
        """Execute the single sanctioned instance of ``op`` (type 2)."""
        self._exec_at_fidelius(op, arg)

    def _gated_priv(self, op, arg):
        """Replacement ``priv_executor``: route to the monopoly copies."""
        if op in (PrivOp.VMRUN,):
            raise ReproError("VMRUN goes through the vmrun executor")
        if op is PrivOp.MOV_CR3:
            with self.gates.type3(self.text_pfns[1], executable=True):
                self._exec_at_fidelius(op, arg)
            return
        self._exec_at_fidelius(op, arg)

    def _gated_vmrun(self, vcpu):
        """Replacement ``vmrun_executor``: type 3 gate around VMRUN."""
        with self.gates.type3(self.text_pfns[1], executable=True):
            self.machine.cpu.vmrun(
                vcpu.vmcb, rip=self.text_image.va_of(PrivOp.VMRUN))

    def _install_hooks(self):
        cpu = self.machine.cpu
        cpu.fault_handler = self._on_fault
        # the checking loops live physically next to the monopoly copies
        for op in PrivOp:
            if op is not PrivOp.VMRUN:
                cpu.priv_hook_sites[op] = self.text_image.va_of(op)
        cpu.priv_post_hooks[PrivOp.MOV_CR0] = self._hook_mov_cr0
        cpu.priv_post_hooks[PrivOp.MOV_CR4] = self._hook_mov_cr4
        cpu.priv_post_hooks[PrivOp.WRMSR] = self._hook_wrmsr
        cpu.priv_post_hooks[PrivOp.LGDT] = self._hook_execute_once
        cpu.priv_post_hooks[PrivOp.LIDT] = self._hook_execute_once
        cpu.priv_post_hooks[PrivOp.MOV_CR3] = self._hook_mov_cr3
        cpu.priv_post_hooks[PrivOp.VMRUN] = self._hook_vmrun

    # The checking loops of Table 2.

    def _hook_mov_cr0(self, cpu, op, arg, old):
        self.gates.charge_type2()
        if not arg & CR0_PG:
            self._deny("type2", "MOV CR0 clearing PG")
        if not arg & CR0_WP and cpu.gate_active != "type1":
            self._deny("type2", "MOV CR0 clearing WP outside a gate")

    def _hook_mov_cr4(self, cpu, op, arg, old):
        self.gates.charge_type2()
        if old is not None and old["cr4"] & CR4_SMEP and not arg & CR4_SMEP:
            self._deny("type2", "MOV CR4 clearing SMEP")

    def _hook_wrmsr(self, cpu, op, arg, old):
        self.gates.charge_type2()
        msr, value = arg
        if msr == MSR_EFER:
            if not value & EFER_NXE:
                self._deny("type2", "WRMSR clearing EFER.NXE")
            if not value & EFER_SVME:
                self._deny("type2", "WRMSR clearing EFER.SVME")

    def _hook_execute_once(self, cpu, op, arg, old):
        """lgdt/lidt already ran once during Xen's initialization; the
        execute-once policy (Section 5.3) forbids any further run."""
        self.gates.charge_type2()
        self._deny("execute-once", "%s after initialization" % op.value)

    def _hook_mov_cr3(self, cpu, op, arg, old):
        self.gates.charge_type2()
        if cpu.gate_active != "type3":
            self._deny("type3", "mov CR3 outside its gate")
        if arg not in self.valid_roots:
            self._deny("type3", "mov CR3 to unvalidated root %#x" % arg)

    def _hook_vmrun(self, cpu, op, vmcb, old):
        self.gates.charge_type2()
        if cpu.gate_active != "type3":
            self._deny("type3", "VMRUN outside its gate")
        vcpu = self._find_vcpu(vmcb)
        if vcpu is None:
            self._deny("type3", "VMRUN with an unknown VMCB")
        domain = vcpu.domain
        if vmcb.read("asid") != domain.asid:
            self._deny("type3", "VMCB ASID does not match its domain")
        if vmcb.read("nested_cr3") != domain.npt.root_pfn:
            self._deny("type3", "VMCB nested CR3 does not match the NPT")
        if domain.sev_handle is not None:
            from repro.sev.state import GuestState
            state = self.firmware.guest_state(domain.sev_handle)
            if state is not GuestState.RUNNING:
                self._deny("type3", "VMRUN of a guest in state %s "
                           "(e.g. mid-migration)" % state.value)

    def _find_vcpu(self, vmcb):
        for domain in self.hypervisor.domains.values():
            for vcpu in domain.vcpus:
                if vcpu.vmcb is vmcb:
                    return vcpu
        return None

    def _deny(self, policy, detail):
        self.audit_event("denied", policy=policy, detail=detail)
        if policy in ("type2", "type3", "execute-once"):
            raise GateViolation(policy, detail)
        raise PolicyViolation(policy, detail)

    # ------------------------------------------------------------------ faults

    def _on_fault(self, fault, op):
        """The page-fault handler for the hypervisor context."""
        kind = op[0]
        pfn = pfn_of(fault.vaddr)
        info = self.pit.lookup(pfn) if self.pit else None
        if kind == "write" and info is not None and info.usage in (
                PageUsage.START_INFO, PageUsage.SHARED_INFO):
            self.check_write_once(fault.vaddr, len(op[2]))
            self.machine.memory.write(fault.vaddr, op[2])
            self.audit_event("write-once-mediated", va=fault.vaddr)
            return True
        usage = info.usage.name if info is not None else "unknown"
        self.audit_event("fault-blocked", access=kind, va=fault.vaddr,
                         usage=usage)
        raise PolicyViolation(
            "non-bypassable-isolation",
            "%s of protected %s page at %#x outside the gates"
            % (kind, usage, fault.vaddr))

    # -- write-once regions (Section 5.3) -------------------------------------------

    def register_write_once_region(self, base, size, usage, name):
        from repro.common.bitvector import OncePolicy
        region = OncePolicy(base, size, name=name)
        self._write_once_regions.append(region)
        self.pit.classify(pfn_of(base), Owner.XEN, usage)
        isolation.write_protect_frame(self.machine, pfn_of(base))
        return region

    def check_write_once(self, va, length):
        for region in self._write_once_regions:
            if region.covers(va, length):
                try:
                    region.use(va, length)
                except ReproError as exc:
                    self.audit_event("write-once-denied", va=va)
                    raise PolicyViolation("write-once", str(exc))
                return
        raise PolicyViolation("write-once",
                              "no write-once region covers %#x" % va)

    # ------------------------------------------------------------------ firmware sealing

    def _fw_gate_check(self, command):
        if self.machine.cpu.gate_active != "type3":
            self.audit_event("denied", policy="sev-command", detail=command)
            raise SevError(
                "COMMAND_BLOCKED",
                "SEV command %s issued outside the type 3 gate" % command)

    def firmware_call(self, method, *args, **kwargs):
        """Issue one SEV firmware command from inside a type 3 gate."""
        with self.gates.firmware_gate():
            return getattr(self.firmware, method)(*args, **kwargs)

    def record_sev_metadata(self, domain, **fields):
        """Self-maintained SEV metadata (Section 4.2.3): bookkeeping kept
        in pages unmapped from the hypervisor."""
        self.sev_meta.setdefault(domain.domid, {}).update(fields)
        self._sync_sev_metadata()

    def drop_sev_metadata(self, domid):
        """Discard a domain's metadata (rollback of a failed RECEIVE)."""
        if self.sev_meta.pop(domid, None) is not None:
            self._sync_sev_metadata()

    def _sync_sev_metadata(self):
        """Serialize the metadata into the unmapped frames so the
        isolation is literal: a hypervisor read of these pages faults."""
        blob = repr(sorted(self.sev_meta.items())).encode()
        blob = blob[: SEV_METADATA_PAGES * 4096]
        pa = self.sev_metadata_pfns[0] << 12
        self.machine.memory.write(pa, blob)

    # ------------------------------------------------------------------ domain protection

    def protect_domain(self, domain):
        """Enroll a guest for full protection: shadowing on (or SEV-ES
        on ES hardware), its RAM unmapped from the hypervisor
        (Section 4.3.4)."""
        self.protected_domains.add(domain)
        if self.hardware_es:
            domain.sev_es = True
        for _, entry in domain.npt.leaf_mappings():
            from repro.hw.pagetable import entry_pfn
            isolation.unmap_frame(self.machine, entry_pfn(entry))
        self.audit_event("domain-protected", domid=domain.domid)

    def _on_npt_table_alloc(self, domain, pfn):
        if not self.installed:
            return
        self.pit.classify(pfn, Owner.XEN, PageUsage.NPT_PAGE,
                          tag=domain.domid)
        isolation.write_protect_frame(self.machine, pfn)

    def _on_iommu_table_alloc(self, pfn):
        if not self.installed:
            return
        self.pit.classify(pfn, Owner.XEN, PageUsage.IOMMU_PAGE)
        isolation.write_protect_frame(self.machine, pfn)

    def _on_guest_frame_alloc(self, domain, pfn):
        if not self.installed:
            return
        self.pit.classify(pfn, Owner.GUEST, PageUsage.GUEST_RAM,
                          tag=domain.domid)
        if domain in self.protected_domains:
            isolation.unmap_frame(self.machine, pfn)

    def _on_guest_frame_release(self, domain, pfn):
        """A guest returns a frame to the host pool (ballooning or
        teardown): scrub it before the allocator can recycle it — the
        page-revocation duty of Section 4.3.8 — and map it back into
        the hypervisor's space as ordinary free memory."""
        if not self.installed:
            return
        if domain in self.protected_domains \
                or domain.domid in self._dying_protected:
            # fidelint: ignore[FID001] -- Fidelius-context scrub: a
            # protected guest's frame must be zeroed before reuse (§4.2.1).
            self.machine.memory.zero_frame(pfn)
        self._release_host_frame(pfn)
        self.audit_event("frame-released", domid=domain.domid, pfn=pfn)

    def _on_table_frame_release(self, domain, pfn):
        """An NPT table page or grant table returns to the pool: drop
        its PIT classification and make it plain writable memory again."""
        if not self.installed:
            return
        # fidelint: ignore[FID001] -- Fidelius-context scrub of a
        # write-protected table page returning to the free pool.
        self.machine.memory.zero_frame(pfn)
        self._release_host_frame(pfn)

    def _release_host_frame(self, pfn):
        from repro.common.constants import PTE_NX, PTE_PRESENT, PTE_WRITABLE
        from repro.hw.pagetable import make_entry
        self.pit.invalidate(pfn)
        self.machine.walker.write_entry(
            self.machine.host_root, pfn << 12,
            make_entry(pfn, PTE_PRESENT | PTE_WRITABLE | PTE_NX))
        self.machine.tlb.flush_page(self.machine.host_root, pfn)

    def _on_grant_table_created(self, domain, pfn):
        if not self.installed:
            return
        self.pit.classify(pfn, Owner.XEN, PageUsage.GRANT_TABLE,
                          tag=domain.domid)
        isolation.write_protect_frame(self.machine, pfn)

    def _on_domain_destroyed(self, domain):
        if not self.installed:
            return
        if domain not in self.protected_domains:
            self.git.remove_for_domain(domain.domid)
            return
        # shutdown_guest sweeps the GIT for a protected domain
        self._dying_protected.add(domain.domid)
        self.shutdown_guest(domain)

    def shutdown_guest(self, domain):
        """VM shutdown (Section 4.3.8): DEACTIVATE + DECOMMISSION, scrub
        the guest's *own* pages (never grant-mapped foreign ones), fix
        the PIT and GIT, delete the SEV metadata.  The frames themselves
        are handed back through the hypervisor's release hooks."""
        if domain.sev_handle is not None:
            try:
                self.firmware_call("deactivate", domain.sev_handle)
                self.firmware_call("decommission", domain.sev_handle)
            except SevError:
                pass
            domain.sev_handle = None
        for helper_key in ("s_dom", "r_dom"):
            handle = self.sev_meta.get(domain.domid, {}).get(helper_key)
            if handle is not None and handle in self.firmware.handles():
                self.firmware_call("decommission", handle)
        for pfn in domain.owned_hpfns:
            # fidelint: ignore[FID001] -- teardown scrub of protected
            # guest RAM, in Fidelius's own context (§4.2.1).
            self.machine.memory.zero_frame(pfn)
        for vcpu in domain.vcpus:
            self.shadow.drop(vcpu)
        self.git.remove_for_domain(domain.domid)
        self.sev_meta.pop(domain.domid, None)
        self._sync_sev_metadata()
        self.protected_domains.discard(domain)
        self.audit_event("domain-shutdown", domid=domain.domid)

    # ------------------------------------------------------------------ hypercalls

    def _hc_pre_sharing(self, vcpu, target_domid, first_gfn, nframes,
                        readonly, *_):
        """``pre_sharing_op`` (Section 4.3.7): the initiator guest
        declares its sharing context before creating grants."""
        domain = vcpu.domain
        if nframes <= 0 or first_gfn + nframes > domain.guest_frames:
            return hc.E_INVAL
        if target_domid not in self.hypervisor.domains:
            return hc.E_INVAL
        self.git.record(GitEntry(
            initiator_domid=domain.domid,
            target_domid=target_domid,
            first_gfn=first_gfn,
            nframes=nframes,
            readonly=bool(readonly),
        ))
        self.audit_event("pre-sharing", domid=domain.domid,
                         target=target_domid, gfn=first_gfn, n=nframes)
        return hc.E_OK

    def _hc_encrypt_free_pages(self, vcpu, first_gfn, nframes, *_):
        """The SME-simulation hypercall of Section 7.1: set the C-bit in
        the guest's NPT entries so subsequently used pages are encrypted
        by the host engine."""
        from repro.common.constants import PTE_C_BIT
        domain = vcpu.domain
        if nframes <= 0 or first_gfn + nframes > domain.guest_frames:
            return hc.E_INVAL
        for gfn in range(first_gfn, first_gfn + nframes):
            self.hypervisor.set_npt_flags(domain, gfn, set_mask=PTE_C_BIT)
        self.audit_event("enc-free-pages", domid=domain.domid,
                         gfn=first_gfn, n=nframes)
        return hc.E_OK
