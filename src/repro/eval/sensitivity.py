"""Sensitivity analysis: how the reproduction's conclusions move as the
calibration constants move.

Two sweeps, both directly relevant to the paper's argument:

* **encryption latency** — the engine's added DRAM latency is the one
  parameter that varies across silicon generations (the paper had to
  simulate SEV with SME at all!).  The sweep shows the figure-5 shape
  is robust: memory-bound benchmarks scale with the latency, CPU-bound
  ones stay flat, and the crossover ordering never changes.
* **exit rate** — Fidelius's fixed per-exit shadow cost (661 cycles)
  determines how exit-heavy a workload must be before the
  no-encryption Fidelius column stops being "negligible".
"""

from dataclasses import dataclass, replace

from repro.eval.macro import evaluate_profile
from repro.runner import WorkUnit, execute
from repro.workloads.profiles import profile_by_name

DEFAULT_LATENCIES = (0, 9, 18, 36, 54, 72)
DEFAULT_EXIT_RATES = (0.001, 0.01, 0.1, 0.5, 1.0, 2.0)


@dataclass(frozen=True)
class SweepPoint:
    x: float
    overhead_pct: float


def _latency_point(name, latency, instructions):
    """One sweep point — a module-level function so shards can run it."""
    result = evaluate_profile(profile_by_name(name),
                              instructions=instructions,
                              enc_extra_cycles=latency)
    return SweepPoint(latency, result.fidelius_enc_overhead_pct
                      - result.fidelius_overhead_pct)


def _exit_rate_point(base_benchmark, rate, instructions):
    profile = replace(profile_by_name(base_benchmark), vmexit_pki=rate)
    result = evaluate_profile(profile, instructions=instructions)
    return SweepPoint(rate, result.fidelius_overhead_pct)


def encryption_latency_sweep(benchmarks=("mcf", "gcc", "hmmer"),
                             latencies=DEFAULT_LATENCIES,
                             instructions=100_000, jobs=1):
    """Fidelius-enc overhead as a function of engine latency.

    Every (benchmark, latency) point is an independent simulation, so
    the sweep shards across ``jobs`` workers and merges back into the
    same nested shape a serial run produces.
    """
    units = [WorkUnit.of((name, latency), _latency_point,
                         name, latency, instructions)
             for name in benchmarks for latency in latencies]
    values = iter(execute(units, jobs=jobs).values())
    return {name: [next(values) for _ in latencies]
            for name in benchmarks}


def exit_rate_sweep(base_benchmark="gcc", rates=DEFAULT_EXIT_RATES,
                    instructions=100_000, jobs=1):
    """Fidelius (no encryption) overhead as a function of VM-exit rate."""
    units = [WorkUnit.of(rate, _exit_rate_point,
                         base_benchmark, rate, instructions)
             for rate in rates]
    return execute(units, jobs=jobs).values()


def format_latency_sweep(sweeps):
    latencies = [point.x for point in next(iter(sweeps.values()))]
    lines = ["Sensitivity: encryption-engine latency (cycles/line-fill)",
             "%-10s" % "latency" + "".join("%10.0f" % x for x in latencies)]
    for name, series in sweeps.items():
        lines.append("%-10s" % name
                     + "".join("%9.2f%%" % p.overhead_pct for p in series))
    return "\n".join(lines)


def format_exit_rate_sweep(series):
    lines = ["Sensitivity: VM-exit rate (exits per kilo-instruction)"]
    for point in series:
        lines.append("  rate %6.3f -> Fidelius overhead %6.2f%%"
                     % (point.x, point.overhead_pct))
    return "\n".join(lines)


def shape_is_robust(sweeps):
    """True if the benchmark *ordering* is identical at every latency —
    the property that makes the reproduction conclusions portable."""
    latencies = range(len(next(iter(sweeps.values()))))
    orderings = set()
    for index in list(latencies)[1:]:  # latency 0 is deliberately flat
        ordering = tuple(sorted(
            sweeps, key=lambda n: sweeps[n][index].overhead_pct))
        orderings.add(ordering)
    return len(orderings) == 1
