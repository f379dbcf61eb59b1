"""FID004: cycle accounting in the hardware layer.

The performance claims of the reproduction rest on the cycle model:
every timed hardware operation charges ``CycleCounter``.  Statically,
a *public* method of a ``repro.hw`` class that stores into ``self``
state must either charge cycles somewhere in its body (any call whose
name contains "charge" counts, covering ``_charge_transfer`` style
helpers) or appear in the allowlist below with a reason.

This is a syntactic approximation: writes that flow through the memory
controller are priced there at runtime, and boot-time construction is
deliberately free.  The allowlist records exactly those judgements so
a new un-priced mutation path cannot appear silently.
"""

import ast

from repro.analysis.astutil import calls_method_named, has_self_store, \
    iter_methods
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import rule

#: "module:Class.method" -> why this state-touching method is untimed.
ALLOWLIST = {
    # The counter itself and its snapshots are the instrument, not the
    # instrumented.
    "repro.hw.cycles:CycleCounter.charge": "the cycle model itself",
    "repro.hw.cycles:CycleCounter.charge_many": "the cycle model itself",
    "repro.hw.cycles:CycleCounter.reset": "test/benchmark harness control",
    # PhysicalMemory sits *below* the timing model: all timed traffic is
    # priced by MemoryController/Cpu; raw frame ops model DRAM contents,
    # not bus transactions.
    "repro.hw.memory:PhysicalMemory.write": "below the timing model",
    "repro.hw.memory:PhysicalMemory.write_frame": "below the timing model",
    "repro.hw.memory:PhysicalMemory.zero_frame": "below the timing model",
    "repro.hw.memory:FrameAllocator.alloc": "allocator bookkeeping is free "
                                            "(real Xen's is off hot paths)",
    "repro.hw.memory:FrameAllocator.free": "allocator bookkeeping is free",
    # Key-slot management is priced by the SEV firmware command costs in
    # repro.sev.firmware, not at the controller.
    "repro.hw.memctrl:MemoryController.install_key":
        "priced by SEV firmware command costs",
    "repro.hw.memctrl:MemoryController.uninstall_key":
        "priced by SEV firmware command costs",
    # TLB fills and hit/miss counters piggyback on the walk that
    # produced them (pt-walk charge in Cpu._translate).
    "repro.hw.tlb:Tlb.insert": "priced by the charging page-table walk",
    "repro.hw.tlb:Tlb.lookup": "priced by the charging page-table walk",
    "repro.hw.tlb:Tlb.new_incarnation":
        "migration/restore epoch bump: the rebuilt guest starts on a "
        "cold TLB and nobody executes INVLPG for the dead "
        "incarnation's entries (flush_root is the charged variant)",
    # Architectural register state: priced at the VMRUN/VMEXIT and
    # privileged-instruction sites that use it.
    "repro.hw.vmcb:Vmcb.write": "priced at VMRUN/VMEXIT sites",
    "repro.hw.vmcb:Vmcb.restore_from": "priced at VMRUN/VMEXIT sites",
    "repro.hw.vmcb:Vmcb.mask_fields": "priced at VMRUN/VMEXIT sites",
    "repro.hw.vmcb:Vmcb.set_exit": "priced at VMRUN/VMEXIT sites",
    "repro.hw.cpu:RegisterFile.load_from": "priced at VMRUN/VMEXIT sites",
    "repro.hw.cpu:RegisterFile.mask_except": "priced at VMRUN/VMEXIT sites",
    # World switches are priced as one VMEXIT_ROUNDTRIP_CYCLES charge at
    # the hypervisor's dispatch loop ("vmexit-roundtrip").
    "repro.hw.cpu:Cpu.vmrun": "priced at the dispatch loop",
    "repro.hw.cpu:Cpu.vmexit": "priced at the dispatch loop",
    # DMA transfer counters are diagnostics; the bytes moved are priced
    # by MemoryController.dma_read/dma_write.
    "repro.hw.dma:DmaEngine.read": "priced by MemoryController.dma_read",
    "repro.hw.dma:DmaEngine.write": "priced by MemoryController.dma_write",
    "repro.hw.iommu:ProtectedDmaEngine.read":
        "priced by MemoryController.dma_read",
    "repro.hw.iommu:ProtectedDmaEngine.write":
        "priced by MemoryController.dma_write",
    "repro.hw.iommu:Iommu.translate":
        "fault counting is diagnostics; the walk itself models an IOTLB "
        "hit (device-table walks are not on the paper's measured paths)",
    # Boot-time construction is deliberately free (the paper measures a
    # booted, protected steady state).
    "repro.hw.machine:Machine.build_host_address_space":
        "boot-time construction is untimed",
}

DUNDER_PREFIX = "__"


@rule("FID004", "cycle-accounting", Severity.WARNING,
      "Public state-touching method in repro.hw neither charges the "
      "cycle model nor appears in the reviewed allowlist.",
      example="""
      # BAD: mutates hardware state for free
      def insert(self, key, entry):
          self._entries[key] = entry
      # GOOD: price the operation in the shared cycle model
      def insert(self, key, entry):
          self._cycles.charge("tlb_insert")
          self._entries[key] = entry
      """)
def check(module, project):
    if module.subpackage != "hw":
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for method, decorators in iter_methods(node):
            if method.name.startswith("_"):
                continue
            if method.name.startswith(DUNDER_PREFIX):
                continue
            key = "%s:%s.%s" % (module.name, node.name, method.name)
            if key in ALLOWLIST:
                continue
            if not has_self_store(method):
                continue
            if calls_method_named(method, _CHARGE_NAMES) or \
                    _calls_charge_like(method):
                continue
            yield Finding(
                "FID004", "cycle-accounting", Severity.WARNING,
                module.name, module.rel_path, method.lineno,
                "%s.%s mutates hardware state without charging the "
                "cycle model (charge it or allowlist it with a reason)"
                % (node.name, method.name))


_CHARGE_NAMES = frozenset({"charge"})


def _calls_charge_like(func_node):
    for node in ast.walk(func_node):
        if isinstance(node, ast.Call):
            name = None
            if isinstance(node.func, ast.Attribute):
                name = node.func.attr
            elif isinstance(node.func, ast.Name):
                name = node.func.id
            if name and "charge" in name:
                return True
    return False
