"""The lockstep differential: one plane, two hook sets, step by step.

:class:`~repro.cloud.Cloud` and :class:`~repro.fleet.model.FleetModel`
run the same :class:`~repro.cloud.plane.ControlPlane`; they differ only
in their attest, boot, move and destroy hooks.  This module drives a
small real ``Cloud`` (every host a full Fidelius
:class:`~repro.system.System`) and a ``FleetModel`` through the *same*
scripted campaign — launches, plane-chosen migrations, a tampered host,
post-quarantine placements, shutdowns — calling the same plane method
on both sides at every step.
It compares what the hooks can make differ: the host each call lands
on (or its refusal), the inventories, the quarantine sets, and the
cycles the step cost — the real hosts' summed
:class:`~repro.hw.cycles.CycleCounter` delta against the model's charge
from :attr:`FleetModel.CYCLES <repro.fleet.model.FleetModel.CYCLES>`.
Guests launch at two sizes in turn, because one size cannot tell a
charge's fixed term from its per-frame term.  Any divergence is a
recorded mismatch, and CI fails on a non-empty list.

The one asymmetry is the point: the script tampers a host's hypervisor
text on the cloud side and lets remote attestation catch it on the
next placement, while the model is told (``quarantine_host``).  The
model asserts what the faithful stack must independently discover.
"""

import random
from dataclasses import dataclass, field

from repro.cloud import Cloud
from repro.common.errors import ReproError
from repro.fleet.model import FleetModel
from repro.system import GuestOwner

#: guest footprints, launched in turn on both sides (real frames ==
#: modelled frames)
GUEST_FRAMES = (16, 48)


@dataclass
class LockstepReport:
    """What the differential did and where (if anywhere) it diverged."""

    hosts: int
    seed: int
    launches: int = 0
    migrations: int = 0
    shutdowns: int = 0
    quarantines: int = 0
    mismatches: list = field(default_factory=list)
    inventory: dict = field(default_factory=dict)

    @property
    def ok(self):
        return not self.mismatches

    def asdict(self):
        return {
            "hosts": self.hosts,
            "seed": self.seed,
            "launches": self.launches,
            "migrations": self.migrations,
            "shutdowns": self.shutdowns,
            "quarantines": self.quarantines,
            "mismatches": list(self.mismatches),
            "ok": self.ok,
        }


class _Differential:
    """One cloud, one model, and the comparisons between them."""

    def __init__(self, seed, hosts, frames):
        self.cloud = Cloud(hosts=hosts, frames=frames, seed=seed)
        # Generous modelled capacity: the real machines' frame budget is
        # consumed by firmware/hypervisor structures too, so capacity
        # must never be the model's reason to refuse what the cloud
        # accepts at this scale.
        self.model = FleetModel(hosts=hosts, host_frames=64 * frames,
                                seed=seed)
        self.report = LockstepReport(hosts=hosts, seed=seed)

    def _mismatch(self, what, cloud_says, model_says):
        self.report.mismatches.append(
            "%s: cloud=%r model=%r" % (what, cloud_says, model_says))

    def check_inventories(self, when):
        cloud_inv = self.cloud.inventory()
        model_inv = self.model.inventory()
        if cloud_inv != model_inv:
            self._mismatch("inventory after %s" % when, cloud_inv,
                           model_inv)
        cloud_q = sorted(self.cloud.quarantined)
        model_q = sorted(self.model.quarantined)
        if cloud_q != model_q:
            self._mismatch("quarantine set after %s" % when, cloud_q,
                           model_q)

    def _cycles(self):
        """Both sides' cycle totals: the real hosts' summed counters,
        and the model's charges."""
        return (sum(host.machine.cycles.total for host in self.cloud.hosts),
                self.model.metrics["busy_cycles"])

    def step(self, method, name, *args, **boot):
        """Call plane ``method`` with ``(name, *args)`` on both sides and
        compare where the guest ends up and what the call cost; ``boot``
        (the tenant's owner and payload) goes to the cloud's boot hook
        only."""
        before = self._cycles()
        outcomes = []
        for plane, extra in ((self.cloud, boot), (self.model, {})):
            try:
                outcomes.append(
                    getattr(plane, method)(name, *args, **extra).host)
            except ReproError as exc:
                outcomes.append("refused: %s" % exc)
        spent = [after - start
                 for after, start in zip(self._cycles(), before)]
        counter = {"launch": "launches", "migrate": "migrations",
                   "shutdown": "shutdowns"}[method]
        setattr(self.report, counter, getattr(self.report, counter) + 1)
        if outcomes[0] != outcomes[1]:
            self._mismatch("%s of %s" % (method, name), *outcomes)
        if spent[0] != spent[1]:
            self._mismatch("cycles of %s %s" % (method, name), *spent)
        self.check_inventories("%s %s" % (method, name))

    def tamper(self, index):
        """Corrupt host ``index``'s hypervisor text on the cloud side;
        declare the same host quarantined on the model side.  The cloud
        must *discover* the quarantine via attestation on its next
        placement — that is what the next launch/migrate checks."""
        host = self.cloud.host(index)
        host.machine.memory.write(host.hypervisor.text.base_va + 0x600,
                                  b"\xCC\xCC")
        self.model.quarantine_host(index)
        self.report.quarantines += 1


def run_lockstep(seed=0xC10D, hosts=3, tenants=6, churn=6, frames=4096):
    """Drive the full differential; returns a :class:`LockstepReport`.

    The campaign: launch ``tenants`` guests, run ``churn`` plane-chosen
    migrations, tamper the host heading the placement order and verify
    both sides route around it identically (the cloud by *discovering*
    the tamper at its next attestation), then shut a tenant down, keep
    churning, and shut down a second tenant of the other size.
    """
    diff = _Differential(seed, hosts, frames)
    rng = random.Random(seed ^ 0xD1FF)
    names = ["ls-t%03d" % i for i in range(tenants)]

    def launch(name, owner_seed):
        size = GUEST_FRAMES[diff.report.launches % len(GUEST_FRAMES)]
        diff.step("launch", name, size, owner=GuestOwner(seed=owner_seed),
                  payload=b"LOCKSTEP|" + name.encode())

    for i, name in enumerate(names):
        launch(name, seed + 7 * i)
    for _ in range(churn):
        diff.step("migrate", rng.choice(names))

    # Tamper the host at the *head* of the placement order (fewest
    # guests, ties to the lowest index).  Lazy attestation only probes
    # candidates in preference order, so the head is the one host the
    # very next placement is guaranteed to attest — discovery is
    # deterministic whatever shape the churn left the loads in.
    tampered = min(range(hosts),
                   key=lambda i: (len(diff.model.hosts[i].guests), i))
    diff.tamper(tampered)
    # Next placements must route around the tampered host on both sides
    # (this is where the cloud actually quarantines it).
    extra = "ls-extra"
    launch(extra, seed + 999)
    names.append(extra)

    victim = rng.choice(sorted(n for n in names
                               if diff.model.guests[n].host != tampered))
    victim_frames = diff.model.guests[victim].frames
    diff.step("shutdown", victim)
    names.remove(victim)
    survivors = [n for n in names
                 if diff.model.guests[n].host != tampered]
    for _ in range(max(2, churn // 2)):
        diff.step("migrate", rng.choice(survivors))
    # A second shutdown, at the other size, pins both terms of the
    # shutdown charge: the first survivor by name whose frames differ.
    second = next(n for n in sorted(survivors)
                  if diff.model.guests[n].frames != victim_frames)
    diff.step("shutdown", second)

    diff.report.inventory = diff.model.inventory()
    return diff.report
