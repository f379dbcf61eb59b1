"""Fleet orchestration: a multi-host Fidelius cloud.

A thin control plane over :class:`~repro.system.System` that does what a
tenant-facing cloud of Fidelius hosts would do:

* attest every host before placing anything on it (Section 4.3.1's
  remote-attestation use of the measurements);
* place tenants on the least-loaded attested host;
* migrate tenants between hosts over the SEND/RECEIVE transport;
* evacuate a host (e.g. for maintenance) by migrating everything off it.

Tenant identity survives migration: the :class:`Tenant` handle tracks
where its domain currently lives.

The control plane fails closed.  Hosts that fail attestation are
quarantined (no further placement or migration targets until an operator
lifts the quarantine); migrations retry across attested hosts with the
failed ones excluded, and a tenant whose operation cannot complete stays
where it was — :func:`~repro.core.migration.migrate_guest` guarantees
the source is intact and re-enterable after any target-side failure.
Every failure is recorded in :attr:`Cloud.events` for the operator.
"""

from collections import deque
from dataclasses import dataclass, field

from repro.common import crypto
from repro.common.errors import ReproError
from repro.core.attestation import (
    AttestationAuthority,
    RemoteVerifier,
    golden_measurements,
)
from repro.core.migration import migrate_guest
from repro.system import System


@dataclass
class Tenant:
    """One tenant's running guest, wherever it currently lives."""

    name: str
    owner: object
    host_index: int
    domain: object = field(repr=False)
    ctx: object = field(repr=False)


class Cloud:
    """A fleet of identically built Fidelius hosts."""

    #: default ring-buffer capacity for :attr:`events`
    DEFAULT_EVENT_LOG_LIMIT = 4096

    def __init__(self, hosts=2, frames=4096, seed=0xC10D,
                 event_log_limit=DEFAULT_EVENT_LOG_LIMIT):
        if hosts < 1:
            raise ReproError("a cloud needs at least one host")
        self.hosts = [System.create(fidelius=True, frames=frames,
                                    seed=seed + i) for i in range(hosts)]
        self._authorities = [AttestationAuthority(h.machine)
                             for h in self.hosts]
        # All hosts run the same build: host 0's measurements are the
        # fleet's golden values (the distributor's reference).
        golden_fid, golden_xen = golden_measurements(self.hosts[0])
        self._verifiers = [
            RemoteVerifier(golden_fid, golden_xen,
                           authority.public_verifier())
            for authority in self._authorities
        ]
        self.tenants = {}
        #: Hosts failed closed: no placements or migration targets until
        #: an operator calls :meth:`lift_quarantine`.
        self.quarantined = set()
        #: Operator-visible record of failure and recovery steps — a
        #: ring buffer (long soaks otherwise grow it without bound).
        #: Only the newest ``event_log_limit`` events are retained;
        #: :attr:`events_recorded` keeps the lifetime total.
        self.events = deque(maxlen=event_log_limit)
        self.events_recorded = 0

    def __len__(self):
        return len(self.hosts)

    def host(self, index):
        return self.hosts[index]

    def _check_index(self, index):
        """Refuse a host index outside ``[0, len(hosts))`` with a clean
        ReproError (a negative one would alias a host from the end).
        :meth:`attest_host` checks every index it is handed, which
        covers launch, migration and quarantine lifts."""
        if not 0 <= index < len(self.hosts):
            raise ReproError("no host %r in a %d-host cloud"
                             % (index, len(self.hosts)))

    def authority(self, index):
        """Host ``index``'s hardware quote engine."""
        return self._authorities[index]

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

    def perf_stats(self):
        """Fleet-wide simulator fast-path counters, one call per cloud.

        Sums every host's :meth:`~repro.hw.machine.Machine.perf_stats`
        hierarchy counters.  The keystream cache is process-global (one
        cache serves every machine), so it is reported once rather than
        summed; the TLBs' per-root occupancy maps collapse into a total
        entry count (root PFNs are meaningless across hosts).
        """
        per_host = [host.machine.perf_stats() for host in self.hosts]
        memctrl = {}
        for stats in per_host:
            for key, value in stats["memctrl"].items():
                memctrl[key] = memctrl.get(key, 0) + value
        tlb = {"hits": 0, "misses": 0, "evictions": 0, "entries": 0,
               "roots": 0, "root_index_entries": 0}
        for stats in per_host:
            host_tlb = stats["tlb"]
            for key in ("hits", "misses", "evictions", "entries", "roots"):
                tlb[key] += host_tlb[key]
            tlb["root_index_entries"] += sum(
                host_tlb["root_index_sizes"].values())
        return {
            "hosts": len(self.hosts),
            "keystream_cache": crypto.keystream_cache_stats(),
            "memctrl": memctrl,
            "tlb": tlb,
            "events": {
                "recorded": self.events_recorded,
                "retained": len(self.events),
                "dropped": self.events_dropped,
            },
        }

    # -- attestation -------------------------------------------------------------

    def attest_host(self, index):
        """True if host ``index`` passes remote attestation right now.

        A host that fails is quarantined on the spot — fail closed: a
        single bad quote mid-operation removes the host from the
        placement pool until an operator investigates.
        """
        self._check_index(index)
        if index in self.quarantined:
            return False
        host = self.hosts[index]
        verifier = self._verifiers[index]
        nonce = verifier.fresh_nonce(host.machine.rng)
        quote = self._authorities[index].quote(host.fidelius, nonce)
        reason = verifier.explain(quote, nonce)
        if reason is None:
            return True
        self.quarantined.add(index)
        self._record("host-quarantined", host=index, reason=reason)
        return False

    def lift_quarantine(self, index):
        """Operator override: re-admit a host if it attests cleanly now.

        Both outcomes land in the event log — an operator replaying the
        audit trail must see every lift *attempt*, not just the ones
        that stuck (``attest_host`` also records the re-quarantine, so
        a rejected lift shows up as the pair).
        """
        self.quarantined.discard(index)
        ok = self.attest_host(index)
        if ok:
            self._record("quarantine-lifted", host=index)
        else:
            self._record("quarantine-lift-rejected", host=index)
        return ok

    def attested_hosts(self):
        return [i for i in range(len(self.hosts)) if self.attest_host(i)]

    # -- placement ----------------------------------------------------------------

    def _load(self, index):
        return sum(1 for tenant in self.tenants.values()
                   if tenant.host_index == index)

    def pick_host(self, exclude=()):
        """The least-loaded host that passes attestation.

        Admissible hosts (not quarantined, not excluded) are ordered by
        ``(tenant count, host index)`` — ties break to the lowest index
        — and attested lazily in that order, so the first that attests
        cleanly *is* the answer.  One that fails is quarantined on the
        spot and the walk moves on to the next candidate.
        """
        candidates = sorted(
            (self._load(index), index) for index in range(len(self.hosts))
            if index not in self.quarantined and index not in exclude)
        for _load, index in candidates:
            if self.attest_host(index):
                return index
        raise ReproError("no host in the fleet passes attestation")

    def launch_tenant(self, name, owner, payload=b"", guest_frames=48,
                      host_index=None):
        """Attest, place, and boot a tenant from its encrypted image."""
        if name in self.tenants:
            raise ReproError("tenant %r already exists" % name)
        index = self.pick_host() if host_index is None else host_index
        if host_index is not None and not self.attest_host(host_index):
            raise ReproError("host %d fails attestation" % host_index)
        host = self.hosts[index]
        domain, ctx = host.boot_protected_guest(
            name, owner, payload=payload, guest_frames=guest_frames)
        tenant = Tenant(name, owner, index, domain, ctx)
        self.tenants[name] = tenant
        return tenant

    # -- mobility -------------------------------------------------------------------

    def _migrate_once(self, tenant, to_host_index):
        """One migration attempt; updates the tenant only on success.

        On failure the two-phase ``migrate_guest`` has already restored
        the source, so the tenant handle stays valid where it is; the
        failed target is re-attested (quarantining it if its quotes have
        gone bad mid-operation) and the error propagates to the retry
        loop or the caller.
        """
        source = self.hosts[tenant.host_index]
        target = self.hosts[to_host_index]
        try:
            domain, ctx = migrate_guest(source.fidelius, tenant.domain,
                                        target.fidelius)
        except ReproError as exc:
            self._record("migrate-failed", tenant=tenant.name,
                         source=tenant.host_index, target=to_host_index,
                         reason=str(exc))
            self.attest_host(to_host_index)
            raise
        tenant.host_index = to_host_index
        tenant.domain = domain
        tenant.ctx = ctx
        return tenant

    def _migrate_anywhere(self, tenant, retries, nowhere):
        """Pick -> migrate -> exclude-on-failure, up to ``1 + retries``
        attempts over the attested pool.  If every attempt fails, the
        last migration error propagates (``nowhere`` when no destination
        was ever found) with the tenant intact on its source."""
        excluded = {tenant.host_index}
        last_error = None
        for _ in range(1 + retries):
            try:
                destination = self.pick_host(exclude=excluded)
            except ReproError:
                break
            try:
                return self._migrate_once(tenant, destination)
            except ReproError as exc:
                excluded.add(destination)
                last_error = exc
        raise last_error if last_error is not None else ReproError(nowhere)

    def migrate_tenant(self, name, to_host_index=None, retries=2):
        """Move a tenant; its handle keeps working afterwards.

        With an explicit destination this is a single fail-closed
        attempt.  With ``to_host_index=None`` the destination is chosen
        from the attested pool and retried up to ``retries`` further
        times, excluding hosts that already failed; if every candidate
        fails, the error propagates with the tenant still running on its
        original host.
        """
        tenant = self.tenants[name]
        if to_host_index is None:
            return self._migrate_anywhere(
                tenant, retries,
                "no attested destination for tenant %r" % name)
        if to_host_index == tenant.host_index:
            return tenant
        if not self.attest_host(to_host_index):
            raise ReproError("refusing to migrate onto an "
                             "unattested host")
        return self._migrate_once(tenant, to_host_index)

    def evacuate(self, host_index, retries=2):
        """Migrate every tenant off one host (maintenance drain).

        Each tenant is retried across the remaining attested hosts with
        failed destinations excluded.  If a tenant exhausts every
        candidate the drain stops with that tenant (and any not yet
        attempted) still intact on the source — never half-moved.
        """
        self._check_index(host_index)
        nowhere = ("nowhere to evacuate to" if retries >= 0
                   else "evacuation retries exhausted")
        moved = []
        for tenant in list(self.tenants.values()):
            if tenant.host_index != host_index:
                continue
            try:
                self._migrate_anywhere(tenant, retries, nowhere)
            except ReproError:
                self._record("evacuation-stalled", tenant=tenant.name,
                             host=host_index)
                raise
            moved.append(tenant.name)
        return moved

    # -- lifecycle ----------------------------------------------------------------------

    def shutdown_tenant(self, name):
        """Tear a tenant down; it is forgotten only once destroy succeeds."""
        tenant = self.tenants[name]
        host = self.hosts[tenant.host_index]
        host.hypervisor.destroy_domain(tenant.domain)
        del self.tenants[name]

    def inventory(self):
        """{host_index: [tenant names]} for every host."""
        out = {i: [] for i in range(len(self.hosts))}
        for tenant in self.tenants.values():
            out[tenant.host_index].append(tenant.name)
        return {i: sorted(names) for i, names in out.items()}
