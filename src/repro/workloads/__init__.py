"""Workload models driving the performance evaluation (Section 7).

* :mod:`repro.workloads.profiles` — per-benchmark characterizations of
  the SPECCPU 2006 C programs (Figure 5) and the PARSEC suite
  (Figure 6);
* :mod:`repro.workloads.tracegen` — a synthetic memory-trace generator
  plus a cache model, so the macro numbers are produced by *simulated
  misses*, not plugged-in percentages;
* :mod:`repro.workloads.fio` — a fio-style block-I/O load generator and
  disk-device timing model for Table 3.
"""

from repro.workloads.fio import DiskTimingModel, FioRunner, FioSpec, TABLE3_SPECS
from repro.workloads.profiles import (
    PARSEC_PROFILES,
    SPEC_PROFILES,
    BenchmarkProfile,
)
from repro.workloads.tracegen import (
    CacheModel,
    generate_trace,
    simulate_misses,
)

__all__ = [
    "BenchmarkProfile",
    "SPEC_PROFILES",
    "PARSEC_PROFILES",
    "CacheModel",
    "generate_trace",
    "simulate_misses",
    "FioRunner",
    "FioSpec",
    "DiskTimingModel",
    "TABLE3_SPECS",
]
