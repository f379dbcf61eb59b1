"""Macro benchmarks: Figures 5 (SPECCPU 2006) and 6 (PARSEC).

For each benchmark, a synthetic trace matching the profile's
characterization runs through the cache model; cycle totals for the
three configurations are then assembled from the *measured* miss count
and the measured per-event costs of the Fidelius mechanisms:

* **Xen** — core cycles + DRAM stalls + the host-interaction baseline
  (VM exits, NPT fills);
* **Fidelius** — adds one shadow+check round trip (661 cycles) per VM
  exit and one type 1 gate (306 cycles) per NPT update;
* **Fidelius-enc** — additionally pays the encryption-engine latency on
  every DRAM access (the paper simulated this with SME; we model the
  engine directly).
"""

from dataclasses import dataclass

from repro.common.constants import (
    DRAM_LATENCY_CYCLES,
    ENCRYPTION_EXTRA_CYCLES,
    GATE1_CYCLES,
    NPT_FILL_CYCLES,
    SHADOW_CHECK_CYCLES,
    VMEXIT_ROUNDTRIP_CYCLES,
)
from repro.runner import WorkUnit, execute
from repro.workloads.profiles import PARSEC_PROFILES, SPEC_PROFILES
from repro.workloads.tracegen import simulate_misses


@dataclass(frozen=True)
class MacroResult:
    name: str
    xen_cycles: float
    fidelius_cycles: float
    fidelius_enc_cycles: float
    measured_misses: int
    accesses: int

    @property
    def fidelius_overhead_pct(self):
        return 100.0 * (self.fidelius_cycles / self.xen_cycles - 1.0)

    @property
    def fidelius_enc_overhead_pct(self):
        return 100.0 * (self.fidelius_enc_cycles / self.xen_cycles - 1.0)


def evaluate_profile(profile, instructions=200_000, seed=0xACE5,
                     enc_extra_cycles=ENCRYPTION_EXTRA_CYCLES,
                     shadow_cycles=SHADOW_CHECK_CYCLES,
                     gate1_cycles=GATE1_CYCLES):
    """Cycle totals for one benchmark under the three configurations.

    The cost parameters are overridable so the sensitivity analysis can
    sweep them (``repro.eval.sensitivity``).
    """
    accesses = int(instructions * profile.mem_pki / 1000.0)
    misses, accesses = simulate_misses(profile, accesses, seed=seed)
    kiloinstr = instructions / 1000.0
    exits = kiloinstr * profile.vmexit_pki
    npt_updates = kiloinstr * profile.npt_update_pki

    core = instructions * profile.cpi_core
    dram = misses * DRAM_LATENCY_CYCLES
    host_baseline = exits * VMEXIT_ROUNDTRIP_CYCLES \
        + npt_updates * NPT_FILL_CYCLES

    xen = core + dram + host_baseline
    fidelius = xen + exits * shadow_cycles + npt_updates * gate1_cycles
    fidelius_enc = fidelius + misses * enc_extra_cycles
    return MacroResult(profile.name, xen, fidelius, fidelius_enc,
                       misses, accesses)


def run_figure(figure, instructions=200_000, seed=0xACE5, jobs=1):
    """All rows of one figure: ``"fig5"`` (SPEC) or ``"fig6"`` (PARSEC).

    Each benchmark is an independent seeded simulation, so rows shard
    across ``jobs`` worker processes; the runner re-sorts them into
    profile order, keeping the figure byte-identical to a serial run.
    """
    profiles = {"fig5": SPEC_PROFILES, "fig6": PARSEC_PROFILES}[figure]
    units = [WorkUnit.of(p.name, evaluate_profile, p,
                         instructions=instructions, seed=seed)
             for p in profiles]
    return execute(units, jobs=jobs).values()


def average_overheads(results):
    """The figures' 'average' bars: arithmetic means of the overheads."""
    n = len(results)
    return (
        sum(r.fidelius_overhead_pct for r in results) / n,
        sum(r.fidelius_enc_overhead_pct for r in results) / n,
    )
