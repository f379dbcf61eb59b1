"""Pluggable placement policies behind one small protocol.

A policy owns two things: the *sort key* the control plane's capacity
index keeps hosts ordered by, and the *choice rule* that turns an
ordered index into a placement decision.  Keeping the key inside the
policy is what makes placement O(log n): the :class:`CapacityIndex` is
a sorted list maintained by ``bisect`` on every
launch/shutdown/migrate/failure, so a decision is a bisection
(bin-packing) or a scan from the head that normally terminates
immediately (spread), never a full fleet walk.

Three built-ins, each deterministic with ties broken by host index:

``spread``
    Fewest resident guests first — the rule :class:`~repro.cloud.Cloud`
    places by, which is why the lockstep differential runs under it.
``bin_packing``
    Tightest fit: the host with the *least* free frames that still
    holds the request.  Never overcommits (the property suite holds it
    to that).
``affinity``
    Co-locate tagged tenants: prefer the admissible host already
    holding the most guests sharing a tag with the request, fall back
    to spread when no tagged host admits it.

``choose`` proposes a candidate; the plane attests it and asks again
if the attestation fails (the failed host has left the index by then).

``POLICIES`` is the dispatch table scenario specs name policies
through; it is registered as a constant in the state registry.
"""

import bisect

from repro.common.errors import ReproError


class FleetError(ReproError):
    """A control-plane operation that cannot proceed (no capacity, no
    admissible host, unknown guest, no such host).  Scenario drivers
    treat these the way the chaos soak treats a clean ``ReproError``:
    an accepted, counted outcome — never silent, never fatal to the
    run."""


class CapacityIndex:
    """A sorted ``(key, host_index)`` list over admissible hosts.

    ``key`` comes from the owning policy; entries are maintained with
    ``bisect`` so add/remove/update are O(log n) comparisons (plus the
    list memmove).  Hosts leave the index entirely when they fail or
    are quarantined — absence *is* inadmissibility.
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
        """Re-key one host (its load or free capacity changed)."""
        self.remove(host_index)
        self.add(host_index, key)

    def ordered(self):
        """Entries in key order — the policy's preference order."""
        return self._entries

    def from_key(self, key):
        """Entries at or after ``key``, in order (bin-packing's
        bisection entry point).

        The probe is wrapped in a 1-tuple so it compares against the
        ``(key, host_index)`` entries key-first, and — being shorter —
        sorts before every entry sharing the key, giving the leftmost
        match.
        """
        at = bisect.bisect_left(self._entries, (key,))
        return self._entries[at:]


class PlacementPolicy:
    """The protocol: a sort key and a choice rule over the index."""

    name = "?"

    def key(self, host):
        """The capacity-index sort key for ``host``."""
        raise NotImplementedError

    def choose(self, plane, frames, tags=(), exclude=frozenset()):
        """The host index to place ``frames``/``tags`` on, or None when
        no admissible host fits."""
        raise NotImplementedError


class SpreadPolicy(PlacementPolicy):
    """Fewest guests wins; max-load minus min-load stays <= 1 under
    churn because every placement lands on a current minimum."""

    name = "spread"

    def key(self, host):
        return (len(host.guests), host.index)

    def choose(self, plane, frames, tags=(), exclude=frozenset()):
        for _key, index in plane.capacity_index.ordered():
            if index in exclude:
                continue
            if plane.host_records[index].free_frames >= frames:
                return index
        return None


class BinPackingPolicy(PlacementPolicy):
    """Tightest admissible fit, found by bisecting the free-frame
    order: the first index entry with ``free_frames >= frames``."""

    name = "bin_packing"

    def key(self, host):
        return (host.free_frames, host.index)

    def choose(self, plane, frames, tags=(), exclude=frozenset()):
        for _key, index in plane.capacity_index.from_key((frames, -1)):
            if index not in exclude:
                return index
        return None


class AffinityPolicy(SpreadPolicy):
    """Co-locate shared tags; spread otherwise.

    Preference order among tagged candidates: most co-located
    shared-tag guests first, then lowest host index — deterministic,
    and capacity-checked so affinity never overcommits either.
    """

    name = "affinity"

    def choose(self, plane, frames, tags=(), exclude=frozenset()):
        ranked = {}              # host index -> shared-tag guest count
        for tag in tags:
            for index, count in plane.tag_hosts.get(tag, {}).items():
                ranked[index] = ranked.get(index, 0) + count
        for index in sorted(ranked, key=lambda i: (-ranked[i], i)):
            if index in exclude or index not in plane.capacity_index:
                continue
            if plane.host_records[index].free_frames >= frames:
                return index
        return super().choose(plane, frames, tags, exclude)


#: scenario specs name policies through this table (constant: built at
#: import, never written — registered in repro.common.state_registry)
POLICIES = {
    "affinity": AffinityPolicy,
    "bin_packing": BinPackingPolicy,
    "spread": SpreadPolicy,
}


def make_policy(name):
    """A fresh policy instance for ``name`` (policies are stateless,
    but per-plane instances keep the door open for stateful ones)."""
    try:
        return POLICIES[name]()
    except KeyError:
        raise FleetError("unknown placement policy %r (have: %s)"
                         % (name, ", ".join(sorted(POLICIES))))
