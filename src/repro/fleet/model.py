"""The fleet model: the control plane over charged host/guest records.

A :class:`FleetModel` runs the :class:`~repro.cloud.plane.ControlPlane`
that :class:`~repro.cloud.Cloud` runs, but its attest, boot, move and
destroy hooks touch no DRAM frames, firmware or hypervisor: each
*charges* the simulated cycles the real stack's
:class:`~repro.hw.cycles.CycleCounter` would have counted for it
(:attr:`FleetModel.CYCLES`) to ``metrics["busy_cycles"]``.  Charges never
move the virtual clock, which follows the scenario's arrival schedule.
What only the model has lives here: host failure (restart or
LOST), recovery, retirement, rolling key rotation, scale-up, event
dispatch, the state digest and hydration.  10k hosts and 50k guests fit
in tens of megabytes; ``BENCH_fleet.json`` holds the trajectory.

Honesty mechanisms:

* :meth:`hydrate` materializes any single host into a *real*
  :class:`~repro.system.System` — Fidelius installed, every resident
  guest booted from an owner-encrypted image — so invariant audits and
  attack reproductions can spot-check the model against the faithful
  simulator at any point in a scenario;
* the 3-host lockstep differential (:mod:`repro.fleet.lockstep`) calls
  the same plane methods on this model and a real ``Cloud``, and holds
  every step's charge equal to the real hosts' cycle delta.

Determinism: one seed fixes the event queue's tie-breaks and the
model RNG; all iteration is over insertion-ordered dicts or sorted
keys; the state digest (:meth:`state_digest`) is byte-stable across
processes, which is what lets fleet regions shard through
:mod:`repro.runner`.
"""

import random
import zlib
from dataclasses import dataclass

from repro.cloud import ControlPlane, FleetError
from repro.cloud.plane import FAILED, QUARANTINED, RETIRED, UP
from repro.fleet.events import EventQueue
from repro.runner.merge import digest
from repro.system import GuestOwner, System

__all__ = ["FAILED", "QUARANTINED", "RETIRED", "UP", "FleetModel",
           "GuestRecord"]

#: bound on the in-model operator event log
EVENT_LOG_LIMIT = 1024


@dataclass
class GuestRecord:
    """One guest as bookkeeping: where it lives and what it costs."""

    name: str
    host: int
    frames: int
    tags: tuple = ()
    state: str = "RUNNING"
    key_epoch: int = 0
    migrations: int = 0
    restarts: int = 0


class FleetModel(ControlPlane):
    """A seeded, deterministic fleet of host/guest records."""

    #: simulated cycles per operation as ``(fixed, per guest frame)``,
    #: read off the real stack's CycleCounter: boot is ``launch_tenant``
    #: (a restart too), migrate is ``migrate_tenant`` over source and
    #: target, rotate is ``snapshot_guest`` + ``destroy_domain`` +
    #: ``restore_guest`` on one host, shutdown is ``shutdown_tenant``.
    #: Attestation is free, as the quote engine charges no cycles.  The
    #: lockstep checks every charge but rotation's, which no plane
    #: method performs on a real guest; class-level constant
    CYCLES = {
        "boot": (4_776, 476),
        "migrate": (5_535, 1_628),
        "rotate": (5_535, 1_628),
        "shutdown": (1_318, 128),
    }

    def __init__(self, hosts, host_frames=256, seed=0, policy="spread"):
        super().__init__(host_frames,
                         [(seed << 8) + index for index in range(hosts)],
                         policy, EVENT_LOG_LIMIT)
        self.queue = EventQueue(seed)
        self.rng = random.Random((seed << 4) ^ 0xF1EE7)
        self.seed = seed
        self.metrics = {
            "attests": 0, "busy_cycles": 0, "evacuated": 0, "failures": 0,
            "launches": 0, "lost_guests": 0, "migrations": 0,
            "recoveries": 0, "rejected": 0, "restarts": 0,
            "retired": 0, "rotated_guests": 0, "rotations": 0,
            "scale_ups": 0, "shutdowns": 0,
        }
        self._hydrated = {}

    @property
    def hosts(self):
        """The host records (a model host *is* its record)."""
        return self.host_records

    def _charge(self, kind, frames):
        fixed, per_frame = self.CYCLES[kind]
        self.metrics["busy_cycles"] += fixed + per_frame * frames

    # -- hooks: cycle charges --------------------------------------------------

    def _attest(self, index):
        self.metrics["attests"] += 1
        return None

    def _boot(self, name, index, frames, tags):
        self.metrics["launches"] += 1
        self._charge("boot", frames)
        return GuestRecord(name=name, host=index, frames=frames,
                           tags=tuple(tags),
                           key_epoch=self.host_records[index].key_epoch)

    def _move(self, guest, index):
        guest.key_epoch = self.host_records[index].key_epoch
        guest.migrations += 1
        self.metrics["migrations"] += 1
        self._charge("migrate", guest.frames)

    def _destroy(self, guest):
        self.metrics["shutdowns"] += 1
        self._charge("shutdown", guest.frames)

    # -- host lifecycle --------------------------------------------------------

    def fail_host(self, index):
        """Abrupt host death: its guests are restarted elsewhere by the
        control plane (charged as fresh boots), or LOST when the
        remaining fleet has no room — the population-level outcome a
        correlated failure wave is run to measure."""
        self._check_index(index)
        host = self.host_records[index]
        if host.state in (FAILED, RETIRED):
            return
        self._set_state(host, FAILED)
        self.metrics["failures"] += 1
        self._record("host-failed", host=index, guests=len(host.guests))
        for name in list(host.guests):
            guest = self.guests[name]
            self._unplace(guest, host)
            try:
                target = self.pick_host(guest.frames, guest.tags, {index})
            except FleetError:
                guest.state = "LOST"
                guest.host = -1
                self.metrics["lost_guests"] += 1
                self._record("guest-lost", guest=name)
                continue
            guest.key_epoch = self.host_records[target].key_epoch
            self._place(guest, self.host_records[target])
            guest.restarts += 1
            self.metrics["restarts"] += 1
            self._charge("boot", guest.frames)
        host.free_frames = host.frames

    def recover_host(self, index):
        self._check_index(index)
        host = self.host_records[index]
        if host.state != FAILED:
            return
        host.key_epoch += 1     # a rebuilt host comes up with fresh keys
        self._set_state(host, UP)
        self.metrics["recoveries"] += 1
        self._record("host-recovered", host=index)

    def _drain(self, index):
        """:meth:`evacuate`, counting every guest it moves off even if
        the drain stalls part-way."""
        self._check_index(index)
        host = self.host_records[index]
        residents = len(host.guests)
        try:
            self.evacuate(index)
        finally:
            self.metrics["evacuated"] += residents - len(host.guests)

    def retire_host(self, index):
        """Scale-down: drain the host, then take it out of service."""
        self._check_index(index)
        host = self.host_records[index]
        if host.state == RETIRED:
            return
        self._drain(index)
        self._set_state(host, RETIRED)
        self.metrics["retired"] += 1
        self._record("host-retired", host=index)

    def rotate_host_keys(self, index):
        """Rolling fleet key rotation, one host at a time: new host
        epoch, every resident guest re-encrypted under it
        (Section 4.3.6 at population scale)."""
        self._check_index(index)
        host = self.host_records[index]
        if host.state == RETIRED:
            return 0
        host.key_epoch += 1
        self.metrics["rotations"] += 1
        for name, frames in host.guests.items():
            self.guests[name].key_epoch = host.key_epoch
            self.metrics["rotated_guests"] += 1
            self._charge("rotate", frames)
        self._record("host-rotated", host=index, guests=len(host.guests))
        return len(host.guests)

    # -- event dispatch --------------------------------------------------------

    #: Event.kind -> handler method; class-level constant
    HANDLERS = {
        "launch": "_on_launch",
        "migrate": "_on_migrate",
        "shutdown": "_on_shutdown",
        "host-fail": "_on_host_fail",
        "host-recover": "_on_host_recover",
        "rotate-host": "_on_rotate_host",
        "scale-up": "_on_scale_up",
        "scale-down": "_on_scale_down",
        "evacuate": "_on_evacuate",
    }

    def dispatch(self, event):
        """Run one event's handler; a :class:`FleetError` is a counted,
        logged rejection (the fleet analogue of the soak's clean
        ``ReproError`` outcome), never a crash."""
        try:
            handler = getattr(self, self.HANDLERS[event.kind])
        except KeyError:
            raise FleetError("no handler for event kind %r" % event.kind)
        try:
            handler(event)
        except FleetError as exc:
            self.metrics["rejected"] += 1
            self._record("rejected", event=event.kind, reason=str(exc))

    def run(self, max_events=None, until_ns=None):
        """Drain the queue (bounded by ``max_events`` / ``until_ns``);
        returns the number of events processed."""
        processed = 0
        while max_events is None or processed < max_events:
            if until_ns is not None:
                head = self.queue.peek_time()
                if head is None or head > until_ns:
                    break
            item = self.queue.pop()
            if item is None:
                break
            _when, event = item
            self.dispatch(event)
            processed += 1
        return processed

    def _on_launch(self, event):
        self.launch(event.get("name"), event.get("frames"),
                    tuple(event.get("tags", ())))

    def _on_migrate(self, event):
        self.migrate(event.get("name"), target=event.get("target"))

    def _on_shutdown(self, event):
        self.shutdown(event.get("name"))

    def _on_host_fail(self, event):
        self.fail_host(event.get("host"))

    def _on_host_recover(self, event):
        self.recover_host(event.get("host"))

    def _on_rotate_host(self, event):
        self.rotate_host_keys(event.get("host"))

    def _on_scale_up(self, event):
        for _ in range(event.get("hosts", 1)):
            self.add_host(event.get("frames"), (self.seed << 8) + len(self))
            self.metrics["scale_ups"] += 1

    def _on_scale_down(self, event):
        self.retire_host(event.get("host"))

    def _on_evacuate(self, event):
        self._drain(event.get("host"))

    # -- inspection ------------------------------------------------------------

    def snapshot_state(self):
        """The canonical-digest input: every modelled fact, no
        diagnostics (the log and wall-clock-free metrics are included —
        they are deterministic model outputs, not timings)."""
        return {
            "clock_ns": self.queue.now,
            "guests": {
                name: (g.host, g.frames, g.tags, g.state, g.key_epoch,
                       g.migrations, g.restarts)
                for name, g in self.guests.items()
            },
            "hosts": [
                (h.index, h.frames, h.free_frames, h.state, h.key_epoch,
                 tuple(h.guests))
                for h in self.host_records
            ],
            "metrics": dict(self.metrics),
            "policy": self.policy.name,
            "quarantined": sorted(self.quarantined),
        }

    def state_digest(self):
        """Byte-stable SHA-256 of :meth:`snapshot_state` — the
        serial-vs-``--jobs`` comparison key for sharded fleets."""
        return digest(self.snapshot_state())

    # -- lazy hydration --------------------------------------------------------

    def hydrate(self, index, frames=None):
        """Materialize host ``index`` as a real Fidelius
        :class:`~repro.system.System` with its resident guests booted.

        The faithful twin is built from the host's deterministic seed;
        each guest boots from an owner-encrypted image whose payload is
        a pure function of (guest name, key epoch), so two hydrations
        of the same model state are identical.  The system is cached
        until :meth:`dehydrate`; hydration is a diagnostic view and is
        therefore never part of the model's digest or its pickled state
        (see ``__getstate__``).
        """
        self._check_index(index)
        host = self.host_records[index]
        if host.state == RETIRED:
            raise FleetError("host %d is retired" % index)
        if index in self._hydrated:
            return self._hydrated[index]
        if frames is None:
            frames = max(2048, 512 + 2 * sum(host.guests.values()))
        system = System.create(fidelius=True, frames=frames,
                               seed=host.seed)
        contexts = {}
        for name, guest_frames in host.guests.items():
            guest = self.guests[name]
            # zlib.crc32, not hash(): str hashes vary per process
            owner = GuestOwner(
                seed=(host.seed << 8) ^ (zlib.crc32(name.encode())
                                         & 0xFFFF))
            payload = b"FLEET|%s|epoch=%d|" % (name.encode(),
                                               guest.key_epoch)
            _domain, ctx = system.boot_protected_guest(
                name, owner, payload=payload,
                guest_frames=max(16, min(64, guest_frames)))
            contexts[name] = ctx
        self._hydrated[index] = (system, contexts)
        return system, contexts

    def dehydrate(self, index):
        """Drop the materialized twin for host ``index``."""
        return self._hydrated.pop(index, None) is not None

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_hydrated"] = {}
        return state
