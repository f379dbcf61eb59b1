"""Ablations of the design choices DESIGN.md calls out.

A1 (the type 1 gate vs the rejected per-transition CR3 switch, Section
4.1.3) is read off ``gate_cost_benchmark``.  This module sets up the
other four:

A2  VMCB shadowing vs strict write-protection (Section 5.1): count the
    hypervisor's VMCB field accesses while it services one void
    hypercall.  Strict protection would pay a type 1 gate for each;
    shadowing pays one flat round trip.
A3  batched NPT prepopulation vs lazy fill (Section 4.3.4): where the
    NPT fills, and the gate crossings they need, land.
A4  the three I/O encoders on fio's worst-case job, seq-read (Section
    7.2).
A5  software VMCB shadowing vs SEV-ES hardware: ``shadow_cost_benchmark``
    on a ``sev_es=True`` host.
"""

from dataclasses import dataclass

from repro.eval.fio_table import IO_ENCODERS, fidelius_runner
from repro.eval.micro import shadow_cost_benchmark
from repro.system import System
from repro.workloads.fio import TABLE3_SPECS
from repro.xen import hypercalls as hc


def vmcb_accesses_per_hypercall():
    """VMCB field reads and writes while Xen services one void
    hypercall from a plain guest."""
    system = System.create(fidelius=False, frames=2048, seed=0xAB2)
    domain, ctx = system.create_plain_guest("probe", guest_frames=16)
    vmcb = domain.vcpu0.vmcb
    read, write = vmcb.read, vmcb.write
    accesses = []

    def counting_read(name):
        accesses.append(name)
        return read(name)

    def counting_write(name, value):
        accesses.append(name)
        return write(name, value)

    vmcb.read, vmcb.write = counting_read, counting_write
    ctx.hypercall(hc.HC_VOID)
    return len(accesses)


@dataclass(frozen=True)
class NptSweepCosts:
    boot_cycles: int
    runtime_cycles: int
    runtime_npt_fill_cycles: int


def npt_sweep_costs(lazy_npt):
    """Build a 128-frame guest, then write one byte to each of its
    frames; cycles spent at build and during the sweep."""
    system = System.create(fidelius=True, frames=4096, seed=0xAB3,
                           lazy_npt=lazy_npt)
    cycles = system.machine.cycles
    snap = cycles.snapshot()
    domain, ctx = system.create_plain_guest("g", guest_frames=128)
    boot = cycles.since(snap)
    snap = cycles.snapshot()
    for gfn in range(domain.guest_frames):
        ctx.write(gfn * 4096, b"t")
    return NptSweepCosts(boot, cycles.since(snap),
                         snap.delta(cycles).get("npt-fill", 0))


def io_encoder_throughput():
    """seq-read throughput (bytes per kilocycle) under each encoder of
    ``IO_ENCODERS``, each on a fresh host."""
    seq_read = next(s for s in TABLE3_SPECS if s.name == "seq-read")
    throughput = {}
    for name in IO_ENCODERS:
        runner = fidelius_runner(4096, 0xAB4, encoder=name)
        throughput[name] = runner.throughput(seq_read)
    return throughput


def es_shadow_costs():
    """``shadow_cost_benchmark`` on a SEV-ES host, where the hardware
    guards the VMCB and Fidelius drops its software shadow."""
    return shadow_cost_benchmark(iterations=100, system=System.create(
        fidelius=True, frames=2048, seed=0xAB5, sev_es=True))
