"""``Hypervisor.create_domain``'s NPT population: the ``leaves`` dict it
keeps across gfns leaves the same machine state as ``_populate_gfn``
without one, and a construction that fails leaves no domain behind."""

import pytest

from repro.common.errors import PhysicalMemoryError
from repro.core.invariants import check_invariants
from repro.system import System

#: past one leaf table's 512 entries, so gfn 512 starts a second table
_GUEST_FRAMES = 600


def _observe(system, domain):
    """Everything the population can touch, in comparable form."""
    machine = system.machine
    tables = domain.npt.all_table_pfns()
    seen = {
        "owned": sorted(domain.owned_hpfns),
        "tables": sorted(tables),
        "leaves": domain.npt.leaf_mappings(),
        "cycles": (machine.cycles.total, dict(machine.cycles.by_reason),
                   dict(machine.cycles.events)),
        "tlb": (machine.tlb.hits, machine.tlb.misses,
                machine.tlb.evictions),
    }
    if system.fidelius is not None:
        seen["pit"] = [system.fidelius.pit.lookup(pfn)
                       for pfn in sorted(domain.owned_hpfns | tables)]
    return seen


@pytest.mark.parametrize("fidelius", [True, False],
                         ids=["fidelius", "baseline"])
def test_population_with_leaves_equals_populate_gfn_without(fidelius):
    batched = System.create(fidelius=fidelius, frames=2048, seed=0x9B7)
    lazy = System.create(fidelius=fidelius, frames=2048, seed=0x9B7)
    domain = batched.hypervisor.create_domain("g", _GUEST_FRAMES)
    lazy.hypervisor.lazy_npt = True
    twin = lazy.hypervisor.create_domain("g", _GUEST_FRAMES)
    for gfn in range(_GUEST_FRAMES):
        lazy.hypervisor._populate_gfn(twin, gfn)
    assert len(domain.npt.leaf_mappings()) == _GUEST_FRAMES
    assert _observe(batched, domain) == _observe(lazy, twin)


def _assert_only_dom0_and_clean(system):
    assert [d.name for d in system.hypervisor.domains.values()] == ["dom0"]
    assert check_invariants(system) == []
    assert system.fidelius.verify_audit_chain()


def test_population_out_of_frames_destroys_the_domain():
    system = System.create(fidelius=True, frames=256, seed=0x9B8)
    allocator = system.machine.allocator
    free = allocator.free_count
    with pytest.raises(PhysicalMemoryError):
        system.hypervisor.create_domain("big", free + 10)
    assert allocator.free_count == free
    _assert_only_dom0_and_clean(system)


def test_grant_table_out_of_frames_releases_the_npt_root():
    system = System.create(fidelius=True, frames=256, seed=0x9B8)
    allocator = system.machine.allocator
    held = [allocator.alloc() for _ in range(allocator.free_count - 1)]
    with pytest.raises(PhysicalMemoryError):
        system.hypervisor.create_domain("tiny", 4)
    assert allocator.free_count == 1
    for pfn in held:
        allocator.free(pfn)
    _assert_only_dom0_and_clean(system)
