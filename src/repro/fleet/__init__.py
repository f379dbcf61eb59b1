"""Datacenter-scale fleet simulation: a discrete-event core (FID003
layer 7, between ``repro.cloud`` and ``repro.eval``).

:class:`~repro.cloud.Cloud` and :class:`FleetModel` run one control
plane (:class:`~repro.cloud.plane.ControlPlane`) through two hook sets.
The cloud's are *faithful*: every host carries a full
:class:`~repro.hw.machine.Machine` with DRAM frames, firmware and
hypervisor state, so a 10k-host fleet is memory-infeasible before it is
slow.  The model's trade that fidelity for scale along one explicit
axis: hosts and guests are lightweight records, and boot, move, destroy
and key rotation charge a fixed table of simulated cycles
(:attr:`FleetModel.CYCLES`) instead of executing the full datapath.
The **lockstep differential** (:mod:`repro.fleet.lockstep`) keeps the
model honest: the same plane methods are called on a 3-host model and
a real ``Cloud``, comparing placements, inventories, quarantine
outcomes and each step's cycles: the model's charge against the real
hosts' ``CycleCounter`` delta.

Determinism is the same contract as everywhere else in the tree: one
seed fixes the event order (the :class:`EventQueue`'s tie-break RNG),
the scenario schedules and every placement; fleet regions shard
through :mod:`repro.runner` with the merged digest byte-identical to a
serial run.
"""

from repro.fleet.events import Event, EventQueue, FleetError
from repro.fleet.lockstep import LockstepReport, run_lockstep
from repro.fleet.model import FleetModel, GuestRecord
from repro.fleet.scenarios import (
    RegionReport,
    ScenarioSpec,
    drive_region,
    region_specs,
    run_fleet,
    summarize,
)

__all__ = [
    "Event",
    "EventQueue",
    "FleetError",
    "FleetModel",
    "GuestRecord",
    "LockstepReport",
    "RegionReport",
    "ScenarioSpec",
    "drive_region",
    "region_specs",
    "run_fleet",
    "run_lockstep",
    "summarize",
]
