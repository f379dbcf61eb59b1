"""The control plane of a Fidelius fleet, written once.

Section 4.3.1 attests a host before anything is placed on it; Section
4.3.6 moves guests only over the fail-closed SEND/RECEIVE transport.
:class:`ControlPlane` owns the host records and the host-index check,
spread placement with lazy attestation, quarantine and lift, the
pick -> migrate -> exclude retry loop, drain evacuation, the inventory
and one bounded event log.  A subclass says what a host *is* through
four hooks — ``_attest``, ``_boot``, ``_move`` and ``_destroy`` — that
do the work, while the plane keeps the books: residency, capacity and
the capacity index move only after a hook has succeeded, so a failed
operation leaves the guest registered where it was.

Placement has one rule, spread: the admissible host with the fewest
resident guests that has room, ties to the lowest index.  Every caller
that places guests (``Cloud``, the fleet campaigns, the soak and the
lockstep) places by it; which host a guest lands on is none of the
paper's claims, so the plane offers no other rule.
"""

import bisect
from collections import deque
from dataclasses import dataclass, field

from repro.common.errors import ReproError

#: host lifecycle states (only the fleet model fails and retires hosts)
UP, FAILED, QUARANTINED, RETIRED = "UP", "FAILED", "QUARANTINED", "RETIRED"


class FleetError(ReproError):
    """A control-plane operation that cannot proceed (no capacity, no
    admissible host, unknown guest, no such host, a bad host or guest
    size).  Scenario drivers treat these the way the chaos soak treats
    a clean ``ReproError``: an accepted, counted outcome — never
    silent, never fatal to the run."""


class CapacityIndex:
    """A sorted ``(key, host_index)`` list over admissible hosts.

    The plane keys each host by :func:`spread_key`; entries are
    maintained with ``bisect`` so add/remove/update are O(log n)
    comparisons (plus the list memmove).  Hosts leave the index
    entirely when they fail or are quarantined — absence *is*
    inadmissibility.
    """

    def __init__(self):
        self._entries = []
        self._keys = {}          # host index -> current key

    def __len__(self):
        return len(self._entries)

    def __contains__(self, host_index):
        return host_index in self._keys

    def add(self, host_index, key):
        if host_index in self._keys:
            raise FleetError("host %d already indexed" % host_index)
        bisect.insort(self._entries, (key, host_index))
        self._keys[host_index] = key

    def remove(self, host_index):
        key = self._keys.pop(host_index, None)
        if key is None:
            return False
        at = bisect.bisect_left(self._entries, (key, host_index))
        assert self._entries[at] == (key, host_index)
        del self._entries[at]
        return True

    def update(self, host_index, key):
        """Re-key one host (its load changed)."""
        self.remove(host_index)
        self.add(host_index, key)

    def ordered(self):
        """Entries in key order — the placement preference order."""
        return self._entries


def _is_frame_count(frames):
    """Whether ``frames`` is a whole number of at least one frame
    (``True`` is not one, though it is an ``int``)."""
    return isinstance(frames, int) and not isinstance(frames, bool) and \
        frames >= 1


def spread_key(host):
    """A host's place in the spread order: fewest resident guests
    first, ties to the lowest index."""
    return (len(host.guests), host.index)


@dataclass
class HostRecord:
    """One host as bookkeeping: capacity, state, key epoch."""

    index: int
    frames: int
    free_frames: int
    state: str = UP
    key_epoch: int = 0
    seed: int = 0
    #: insertion-ordered guest name -> frames (order drives evacuation)
    guests: dict = field(default_factory=dict)

    @property
    def admissible(self):
        return self.state == UP


class ControlPlane:
    """Placement, quarantine, migration and drain over host records:
    one host of ``frames`` frames per entry of ``seeds``.  ``guests``
    maps names to the records the boot hook returned."""

    def __init__(self, frames, seeds, event_log_limit):
        if not seeds:
            raise FleetError("a fleet needs at least one host")
        self.host_records = []
        self.guests = {}
        self.capacity_index = CapacityIndex()
        #: Operator-visible record of failure and recovery steps — a
        #: ring buffer of the newest ``event_log_limit`` events;
        #: :attr:`events_recorded` keeps the lifetime total.
        self.events = deque(maxlen=event_log_limit)
        self.events_recorded = 0
        for seed in seeds:
            # the plane's own method: a subclass may refuse later hosts
            ControlPlane.add_host(self, frames, seed)

    def __len__(self):
        return len(self.host_records)

    def add_host(self, frames, seed):
        """Bring one host of ``frames`` frames into service.  A size
        that is not a whole number of at least one frame is refused, as
        :meth:`launch` refuses one for a guest."""
        if not _is_frame_count(frames):
            raise FleetError("host %d cannot have %r frames"
                             % (len(self.host_records), frames))
        host = HostRecord(len(self.host_records), frames, frames,
                          seed=seed)
        self.host_records.append(host)
        self.capacity_index.add(host.index, spread_key(host))
        return host

    def _check_index(self, index):
        """Refuse a host index outside ``[0, len(self))`` with a clean
        FleetError (a negative one would alias a host from the end, and
        ``True``/``False`` would pass as hosts 1 and 0)."""
        if not isinstance(index, int) or isinstance(index, bool) or \
                not 0 <= index < len(self.host_records):
            raise FleetError("no host %r in a %d-host fleet"
                             % (index, len(self.host_records)))

    def _guest(self, name):
        """The running guest called ``name`` — the one guest lookup."""
        guest = self.guests.get(name)
        if guest is None:
            raise FleetError("no guest %r" % name)
        if guest.state != "RUNNING":
            raise FleetError("guest %r is %s" % (name, guest.state))
        return guest

    # -- the event log ---------------------------------------------------------

    def _record(self, kind, **details):
        self.events_recorded += 1
        self.events.append((kind, details))

    def event_kinds(self):
        """Kinds of the retained (newest) events, oldest first."""
        return [kind for kind, _ in self.events]

    @property
    def events_dropped(self):
        """How many old events the ring buffer has already evicted."""
        return self.events_recorded - len(self.events)

    # -- bookkeeping -----------------------------------------------------------

    def _set_state(self, host, state):
        """Change a host's lifecycle state; only UP hosts are indexed."""
        if host.admissible:
            self.capacity_index.remove(host.index)
        host.state = state
        if host.admissible:
            self.capacity_index.add(host.index, spread_key(host))

    def _reindex(self, host):
        if host.admissible:
            self.capacity_index.update(host.index, spread_key(host))

    def _check_room(self, index, frames):
        host = self.host_records[index]
        if host.free_frames < frames:
            raise FleetError("host %d cannot hold %d frames (%d free)"
                             % (index, frames, host.free_frames))

    def _place(self, guest, host):
        host.free_frames -= guest.frames
        host.guests[guest.name] = guest.frames
        guest.host = host.index
        self._reindex(host)

    def _unplace(self, guest, host):
        host.free_frames += guest.frames
        del host.guests[guest.name]
        self._reindex(host)

    # -- attestation and quarantine --------------------------------------------

    @property
    def quarantined(self):
        """Indices of the hosts failed closed, until an operator calls
        :meth:`lift_quarantine`."""
        return frozenset(host.index for host in self.host_records
                         if host.state == QUARANTINED)

    def attest_host(self, index):
        """True if host ``index`` is admissible and attests right now;
        one that fails is quarantined on the spot (fail closed)."""
        self._check_index(index)
        if not self.host_records[index].admissible:
            return False
        reason = self._attest(index)
        if reason is None:
            return True
        self.quarantine_host(index, reason)
        return False

    def quarantine_host(self, index, reason="operator"):
        """Take an UP host out of the placement pool: no placements or
        migration targets until :meth:`lift_quarantine`."""
        self._check_index(index)
        host = self.host_records[index]
        if host.admissible:
            self._set_state(host, QUARANTINED)
            self._record("host-quarantined", host=index, reason=reason)

    def lift_quarantine(self, index):
        """Operator override: re-admit a quarantined host if it attests
        cleanly now; returns whether the host is admissible afterwards.

        Every lift *attempt* lands in the event log; a rejected one
        shows up as the re-quarantine plus the rejection.
        """
        self._check_index(index)
        host = self.host_records[index]
        if host.state != QUARANTINED:
            return host.admissible
        self._set_state(host, UP)
        ok = self.attest_host(index)
        self._record("quarantine-lifted" if ok
                     else "quarantine-lift-rejected", host=index)
        return ok

    # -- placement -------------------------------------------------------------

    def pick_host(self, frames=0, exclude=()):
        """The first host in spread order that is not in ``exclude``,
        has ``frames`` free and attests.  A candidate that fails
        attestation is quarantined, which takes it out of the capacity
        index, and the scan starts again."""
        hosts = self.host_records
        while True:
            for _key, index in self.capacity_index.ordered():
                if index in exclude or hosts[index].free_frames < frames:
                    continue
                if self.attest_host(index):
                    return index
                break        # the index just lost this host: rescan
            else:
                raise FleetError("no attested host has %d free frames"
                                 % frames)

    def launch(self, name, frames, host=None, **boot):
        """Attest, place and boot one guest of ``frames`` frames;
        ``boot`` goes to the boot hook.  With ``host=None`` the spread
        rule picks the host.  A size that is not a whole number of at
        least one frame is refused before any hook runs."""
        if not _is_frame_count(frames):
            raise FleetError("guest %r cannot have %r frames"
                             % (name, frames))
        if name in self.guests:
            raise FleetError("guest %r already exists" % name)
        if host is None:
            host = self.pick_host(frames)
        elif not self.attest_host(host):
            raise FleetError("host %d fails attestation" % host)
        self._check_room(host, frames)
        guest = self._boot(name, host, frames, **boot)
        self._place(guest, self.host_records[host])
        self.guests[name] = guest
        return guest

    def shutdown(self, name):
        """Tear a guest down; it is forgotten only once destroy succeeds."""
        guest = self._guest(name)
        self._destroy(guest)
        self._unplace(guest, self.host_records[guest.host])
        del self.guests[name]
        return guest

    def inventory(self):
        """{host index: sorted resident guest names} over live hosts."""
        return {host.index: sorted(host.guests)
                for host in self.host_records if host.state != RETIRED}

    # -- mobility --------------------------------------------------------------

    def _migrate_once(self, guest, target):
        """One migration attempt; the books move only on success.  On
        failure the guest is intact on its source, and the target is
        re-attested (quarantining it if its quotes went bad)."""
        self._check_room(target, guest.frames)
        source = guest.host
        try:
            self._move(guest, target)
        except ReproError as exc:
            self._record("migrate-failed", guest=guest.name,
                         source=source, target=target, reason=str(exc))
            self.attest_host(target)
            raise
        self._unplace(guest, self.host_records[source])
        self._place(guest, self.host_records[target])
        return guest

    def _migrate_anywhere(self, guest, retries, nowhere):
        """Pick -> migrate -> exclude-on-failure, up to ``1 + retries``
        attempts over the attested pool.  If every attempt fails, the
        last migration error propagates (``nowhere`` when no destination
        was ever found) with the guest intact on its source."""
        excluded = {guest.host}
        last_error = None
        for _ in range(1 + retries):
            try:
                destination = self.pick_host(guest.frames, excluded)
            except ReproError:
                break
            try:
                return self._migrate_once(guest, destination)
            except ReproError as exc:
                excluded.add(destination)
                last_error = exc
        raise last_error if last_error is not None else FleetError(nowhere)

    def migrate(self, name, target=None, retries=2):
        """Move a guest; its handle keeps working afterwards.  An
        explicit ``target`` gets one fail-closed attempt; otherwise the
        retry loop picks from the attested pool."""
        guest = self._guest(name)
        if target is None:
            return self._migrate_anywhere(
                guest, retries,
                "no attested destination for tenant %r" % name)
        self._check_index(target)
        if target == guest.host:
            return guest
        if not self.attest_host(target):
            raise FleetError("refusing to migrate onto an unattested host")
        return self._migrate_once(guest, target)

    def evacuate(self, index, retries=2):
        """Migrate every guest off one host (maintenance drain), each
        through the retry loop.  A guest that exhausts every candidate
        stops the drain with it (and any not yet tried) intact on the
        source, and records ``evacuation-stalled``."""
        self._check_index(index)
        nowhere = ("nowhere to evacuate to" if retries >= 0
                   else "evacuation retries exhausted")
        moved = []
        for name in list(self.host_records[index].guests):
            try:
                self._migrate_anywhere(self.guests[name], retries, nowhere)
            except ReproError:
                self._record("evacuation-stalled", guest=name, host=index)
                raise
            moved.append(name)
        return moved

    # -- hooks -----------------------------------------------------------------

    def _attest(self, index):
        """None if host ``index`` attests cleanly now, else the reason."""
        raise NotImplementedError

    def _boot(self, name, index, frames, **boot):
        """Bring guest ``name`` up on host ``index``; returns its record
        (with ``name``, ``host``, ``frames`` and ``state``)."""
        raise NotImplementedError

    def _move(self, guest, index):
        """Move ``guest`` to host ``index``, or raise with it intact."""
        raise NotImplementedError

    def _destroy(self, guest):
        """Tear ``guest`` down; raising keeps it registered."""
        raise NotImplementedError
