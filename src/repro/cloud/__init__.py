"""Fleet orchestration: one control plane, two hook sets.

A multi-host Fidelius cloud attests every host before placing anything
on it (Section 4.3.1's remote-attestation use of the measurements),
places tenants on the least-loaded attested host, migrates them between
hosts over the SEND/RECEIVE transport and evacuates a host for
maintenance.  That logic is written once, in
:class:`~repro.cloud.plane.ControlPlane`, and runs through four hooks —
attest, boot, move, destroy — supplied by :class:`Cloud`, below, on
real :class:`~repro.system.System` hosts, and by
:class:`~repro.fleet.model.FleetModel` on charged records.

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

from dataclasses import dataclass, field

from repro.cloud.plane import ControlPlane, FleetError, HostRecord
from repro.common import crypto
from repro.core.attestation import (
    AttestationAuthority,
    RemoteVerifier,
    golden_measurements,
)
from repro.core.migration import migrate_guest
from repro.system import System

__all__ = ["Cloud", "ControlPlane", "FleetError", "HostRecord", "Tenant"]


@dataclass
class Tenant:
    """One tenant's running guest, wherever it currently lives."""

    name: str
    owner: object
    host: int
    domain: object = field(repr=False)
    ctx: object = field(repr=False)
    frames: int
    #: tenants run until shut down
    state = "RUNNING"

    @property
    def host_index(self):
        return self.host

    @host_index.setter
    def host_index(self, index):
        self.host = index


class Cloud(ControlPlane):
    """A fleet of identically built Fidelius hosts."""

    #: default ring-buffer capacity for :attr:`events`
    DEFAULT_EVENT_LOG_LIMIT = 4096

    def __init__(self, hosts=2, frames=4096, seed=0xC10D,
                 event_log_limit=DEFAULT_EVENT_LOG_LIMIT):
        super().__init__(frames, [seed + i for i in range(hosts)],
                         event_log_limit)
        self.hosts = [System.create(fidelius=True, frames=frames,
                                    seed=record.seed)
                      for record in self.host_records]
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

    def add_host(self, frames, seed):
        """Refused, leaving the host records as they were: a Cloud's
        hosts are real Systems built at construction, and a record with
        no System behind it would send the next launch placed on it to
        a host that does not exist."""
        raise FleetError("host %d cannot have %r frames: a Cloud builds "
                         "every host at construction" % (len(self), frames))

    @property
    def tenants(self):
        """{name: :class:`Tenant`} — the plane's guest table."""
        return self.guests

    def host(self, index):
        return self.hosts[index]

    def authority(self, index):
        """Host ``index``'s hardware quote engine."""
        return self._authorities[index]

    def perf_stats(self):
        """Fleet-wide simulator fast-path counters, one call per cloud.

        Sums every host's :meth:`~repro.hw.machine.Machine.perf_stats`
        TLB counters.  The keystream cache is process-global (one
        cache serves every machine), so it is reported once rather than
        summed; the TLBs' per-root occupancy maps collapse into a total
        entry count (root PFNs are meaningless across hosts).
        """
        per_host = [host.machine.perf_stats() for host in self.hosts]
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
            "tlb": tlb,
            "events": {
                "recorded": self.events_recorded,
                "retained": len(self.events),
                "dropped": self.events_dropped,
            },
        }

    def attested_hosts(self):
        return [i for i in range(len(self.hosts)) if self.attest_host(i)]

    # -- tenant operations --------------------------------------------------------

    def launch_tenant(self, name, owner, payload=b"", guest_frames=48,
                      host_index=None):
        """Attest, place, and boot a tenant from its encrypted image."""
        return self.launch(name, guest_frames, host=host_index,
                           owner=owner, payload=payload)

    def migrate_tenant(self, name, to_host_index=None, retries=2):
        """:meth:`~repro.cloud.plane.ControlPlane.migrate` by tenant name."""
        return self.migrate(name, to_host_index, retries)

    def shutdown_tenant(self, name):
        """Tear a tenant down; it is forgotten only once destroy succeeds."""
        self.shutdown(name)

    # -- hooks: the faithful datapath ------------------------------------------

    def _attest(self, index):
        host = self.hosts[index]
        verifier = self._verifiers[index]
        nonce = verifier.fresh_nonce(host.machine.rng)
        quote = self._authorities[index].quote(host.fidelius, nonce)
        return verifier.explain(quote, nonce)

    def _boot(self, name, index, frames, owner, payload=b""):
        domain, ctx = self.hosts[index].boot_protected_guest(
            name, owner, payload=payload, guest_frames=frames)
        return Tenant(name, owner, index, domain, ctx, frames)

    def _move(self, tenant, index):
        tenant.domain, tenant.ctx = migrate_guest(
            self.hosts[tenant.host].fidelius, tenant.domain,
            self.hosts[index].fidelius)

    def _destroy(self, tenant):
        self.hosts[tenant.host].hypervisor.destroy_domain(tenant.domain)
