"""Whole-system invariant checking.

``check_invariants(system)`` audits a running Fidelius host against the
security invariants the design promises, returning a list of violation
strings (empty = healthy).  The integration tests call it after every
phase of complex scenarios; it is also a useful debugging tool when
extending the system:

I1. every allocated physical frame is classified in the PIT;
I2. every page-table-page, NPT page, grant table and PIT/GIT page is
    read-only (or unmapped) in the hypervisor's address space;
I3. no protected guest's RAM is mapped in the hypervisor's space;
I4. the privileged-instruction monopoly holds over all executable pages;
I5. every GIT entry references live domains;
I6. Fidelius private pages (shadow area, SEV metadata) are unmapped;
I7. every active SEV handle maps to exactly one domain and its ASID
    slot agrees with the firmware's bookkeeping.
"""

from repro.common.constants import PTE_PRESENT, PTE_WRITABLE
from repro.common.errors import PageFault
from repro.common.types import PrivOp
from repro.core.binscan import verify_monopoly


def _host_leaf(machine, pfn):
    """The host PTE mapping frame ``pfn`` (identity map), or None."""
    try:
        return machine.walker.read_entry(machine.host_root, pfn << 12)
    except PageFault:
        return None


def check_invariants(system):
    """Returns the list of invariant violations (empty = healthy)."""
    if system.fidelius is None:
        raise ValueError("invariant checking applies to Fidelius hosts")
    violations = []
    violations += _check_classification(system)
    violations += _check_write_protection(system)
    violations += _check_guest_unmapping(system)
    violations += _check_monopoly(system)
    violations += _check_git_liveness(system)
    violations += _check_private_pages(system)
    violations += _check_sev_bookkeeping(system)
    return violations


def _check_classification(system):
    machine = system.machine
    pit = system.fidelius.pit
    out = []
    for pfn in range(machine.frames):
        if machine.allocator.is_allocated(pfn) and not pit.lookup(pfn).valid:
            out.append("I1: allocated frame %#x unclassified in the PIT"
                       % pfn)
    return out


def _protected_frames(system):
    machine = system.machine
    fid = system.fidelius
    frames = set()
    frames.update(pfn for _, pfn in machine.host_table_pages())
    for domain in system.hypervisor.domains.values():
        frames.update(domain.npt.all_table_pfns())
        frames.add(domain.grant_table.frame_pfn)
    frames.update(fid.pit.table_pfns)
    frames.update(fid.git.table_pfns)
    return frames


def _check_write_protection(system):
    machine = system.machine
    out = []
    for pfn in sorted(_protected_frames(system)):
        entry = _host_leaf(machine, pfn)
        if entry is None or not entry & PTE_PRESENT:
            continue  # unmapped is stricter than read-only: fine
        if entry & PTE_WRITABLE:
            out.append("I2: protected frame %#x is writable in the "
                       "hypervisor" % pfn)
    return out


def _check_guest_unmapping(system):
    from repro.hw.pagetable import entry_pfn
    machine = system.machine
    out = []
    for domain in system.fidelius.protected_domains:
        for _, leaf in domain.npt.leaf_mappings():
            pfn = entry_pfn(leaf)
            entry = _host_leaf(machine, pfn)
            if entry is not None and entry & PTE_PRESENT:
                out.append("I3: protected dom %d frame %#x mapped in the "
                           "hypervisor" % (domain.domid, pfn))
    return out


def _check_monopoly(system):
    fid = system.fidelius
    allowed = {op: fid.text_image.va_of(op) for op in PrivOp}
    hits = verify_monopoly(system.machine, system.machine.host_root, allowed)
    return ["I4: stray %s encoding at %#x" % (hit.op.value, hit.va)
            for hit in hits]


def _check_git_liveness(system):
    fid = system.fidelius
    domains = system.hypervisor.domains
    out = []
    for index, entry in fid.git.slots():
        if entry is None:
            continue
        for domid in (entry.initiator_domid, entry.target_domid):
            if domid not in domains:
                out.append("I5: GIT entry %d references dead dom %d"
                           % (index, domid))
    return out


def _check_private_pages(system):
    machine = system.machine
    fid = system.fidelius
    out = []
    private = list(fid.shadow_area_pfns) + list(fid.sev_metadata_pfns)
    for pfn in private:
        entry = _host_leaf(machine, pfn)
        if entry is not None and entry & PTE_PRESENT:
            out.append("I6: Fidelius private frame %#x mapped in the "
                       "hypervisor" % pfn)
    return out


def _check_sev_bookkeeping(system):
    firmware = system.firmware
    out = []
    by_handle = {}
    helper_handles = set()
    for meta in system.fidelius.sev_meta.values():
        helper_handles.update(
            meta[k] for k in ("s_dom", "r_dom") if k in meta)
    for domain in system.hypervisor.domains.values():
        if domain.sev_handle is None:
            continue
        if domain.sev_handle in by_handle:
            out.append("I7: handle %r owned by two domains"
                       % domain.sev_handle)
        by_handle[domain.sev_handle] = domain
        if domain.sev_handle not in firmware.handles():
            out.append("I7: dom %d references decommissioned handle %r"
                       % (domain.domid, domain.sev_handle))
        elif firmware.guest_asid(domain.sev_handle) != domain.asid:
            out.append("I7: dom %d ASID disagrees with the firmware"
                       % domain.domid)
    for handle in firmware.handles():
        if handle not in by_handle and handle not in helper_handles:
            out.append("I7: orphan firmware handle %r" % handle)
    return out
