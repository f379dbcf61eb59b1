"""Deterministic fault injection (the chaos subsystem).

Fidelius's threat model assumes the hypervisor can fail or misbehave at
*any* point, so the reproduction must survive more than happy paths.
This package turns "no tenant lost, no plaintext leaked, under any
injected fault" into a continuously tested property:

* :mod:`repro.faults.plan` — :class:`FaultPlan`: a seed-driven schedule
  of faults with trigger predicates (call-site, nth occurrence,
  probability drawn from the machine's RNG);
* :mod:`repro.faults.inject` — :class:`HostInjector`: arms a plan at the
  existing layer boundaries (SEV firmware commands, the DMA port,
  attestation quotes, the PV-IO ring) by wrapping live *instances*;
* :mod:`repro.faults.soak` — the chaos soak harness: a scripted fleet
  workload across many seeds, asserting the placement and no-plaintext
  invariants after every injected fault, resumable between seeds;
* :mod:`repro.faults.bisect` — shrinks a failing seed's fault schedule
  to the smallest :class:`~repro.faults.inject.FireWindow` that still
  reproduces the failure.

Containment rule (enforced by fidelint FID009): all injection state
lives here.  Product code carries no fault hooks — injectors wrap
instances from the outside and are disarmed by restoring the original
bound methods, so a production import graph can never reach a fault.
"""

from repro.faults.inject import (
    HostInjector,
    arm_cloud,
    arm_system,
    schedule_bytes,
)
from repro.faults.plan import DEFAULT_SITES, FaultPlan, FaultSpec

__all__ = [
    "DEFAULT_SITES",
    "FaultPlan",
    "FaultSpec",
    "HostInjector",
    "arm_cloud",
    "arm_system",
    "schedule_bytes",
]
