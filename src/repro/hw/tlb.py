"""A simple software model of the translation lookaside buffer.

The TLB matters to the paper in two ways:

* the cost argument for the gate designs (Section 4.1.3): a CR3 switch
  flushes the whole TLB (AMD, no PCID in Xen 4.5), while the type 3 gate
  flushes exactly one entry (128 cycles) and the type 1 gate flushes
  nothing at all (``CR0.WP`` is consulted at access time, not cached);
* mapping freshness: after a type 3 gate withdraws its transient
  mapping, the stale entry must be flushed or the "unmapped" page would
  still be reachable.

Entries cache (vpn -> pfn, writable, user, nx, c_bit) per address-space
root.  ``CR0.WP`` is deliberately *not* part of the cached state.

Replacement is true LRU (a lookup hit refreshes the entry; the
least-recently-used entry across all roots is the victim).

Invalidation is *epoch-tagged*: each root carries a monotone epoch
counter, every cached entry remembers the epoch it was filled under,
and an entry whose epoch trails its root's is dead.  ``flush_root``
therefore runs in O(1) — charge the per-entry INVLPG cost for the
entries that were live, bump the epoch, zero the live count — and the
stale entries die lazily: a lookup that lands on one deletes it and
reports a miss, and the eviction scan pops them for free.  None of
this changes what is observable: hits, misses, evictions, cycle
charges, the live-entry fingerprint and ``len()`` all behave exactly
as if ``flush_root`` had walked and deleted the entries eagerly,
because stale entries never disturb the relative LRU order of live
ones.  (:meth:`new_incarnation` is the zero-cost variant used when a
guest is rebuilt by migration/restore — the new incarnation's TLB
starts cold without anyone paying INVLPG for entries the old host
owned; it is the hardware-side twin of ``GuestLedger.tlb_epoch``.)
"""

from collections import OrderedDict

from repro.common.constants import TLB_ENTRY_FLUSH_CYCLES


class Tlb:
    def __init__(self, cycles, capacity=1024):
        self.cycles = cycles
        self.capacity = capacity
        #: (root_pfn, vpn) -> (epoch, translation), in LRU order
        #: (oldest first).  Entries whose epoch trails their root's
        #: current epoch are stale: logically absent, physically
        #: reclaimed lazily.
        self._entries = OrderedDict()
        #: root_pfn -> current epoch; missing means epoch 0.
        self._epochs = {}
        #: root_pfn -> live (current-epoch) entry count; missing means 0.
        self._live = {}
        #: total live entries across all roots (== len() of the old
        #: eager-flush implementation).
        self._live_total = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def root_epoch(self, root_pfn):
        """The current epoch of one address-space root (0 if never
        flushed or re-incarnated)."""
        return self._epochs.get(root_pfn, 0)

    def lookup(self, root_pfn, vpn):
        key = (root_pfn, vpn)
        entry = self._entries.get(key)
        if entry is not None:
            epoch, translation = entry
            if epoch == self._epochs.get(root_pfn, 0):
                self.hits += 1
                self._entries.move_to_end(key)
                return translation
            # Stale: flushed under a previous epoch.  Reclaim now; the
            # live count was already zeroed at flush time.
            del self._entries[key]
        self.misses += 1
        return None

    def insert(self, root_pfn, vpn, translation):
        key = (root_pfn, vpn)
        epoch = self._epochs.get(root_pfn, 0)
        old = self._entries.get(key)
        if old is not None:
            if old[0] != epoch:
                # refilling a slot whose old content was flushed away
                self._live[root_pfn] = self._live.get(root_pfn, 0) + 1
                self._live_total += 1
            self._entries[key] = (epoch, translation)
            self._entries.move_to_end(key)
            return
        entries = self._entries
        while len(entries) >= self.capacity:
            (vroot, _vvpn), (vepoch, _vt) = entries.popitem(last=False)
            if vepoch == self._epochs.get(vroot, 0):
                # a live victim: this is the eviction the old eager
                # implementation would have performed
                self.evictions += 1
                self._live[vroot] -= 1
                self._live_total -= 1
                break
            # stale victim: already logically gone, reclaimed for free
        entries[key] = (epoch, translation)
        self._live[root_pfn] = self._live.get(root_pfn, 0) + 1
        self._live_total += 1

    def flush_page(self, root_pfn, vpn):
        """INVLPG: drop one entry; costs the measured 128 cycles."""
        self.cycles.charge(TLB_ENTRY_FLUSH_CYCLES, "tlb-flush-entry")
        entry = self._entries.pop((root_pfn, vpn), None)
        if entry is not None and entry[0] == self._epochs.get(root_pfn, 0):
            self._live[root_pfn] -= 1
            self._live_total -= 1

    def flush_root(self, root_pfn):
        """Drop every entry of one address space; per-entry INVLPG cost
        (same 128-cycle figure as :meth:`flush_page`).

        O(1): the epoch bump retires every live entry at once; they are
        reclaimed lazily by lookups and the eviction scan."""
        live = self._live.get(root_pfn, 0)
        if not live:
            return
        self.cycles.charge(TLB_ENTRY_FLUSH_CYCLES * live,
                           "tlb-flush-root")
        self._epochs[root_pfn] = self._epochs.get(root_pfn, 0) + 1
        del self._live[root_pfn]
        self._live_total -= live

    def new_incarnation(self, root_pfn):
        """Retire every entry of ``root_pfn`` *without* charging.

        Migration/restore rebuilds a guest whose TLB state lives on the
        old host: the new incarnation simply starts cold (the paper's
        model, mirrored by ``GuestLedger.tlb_epoch``), nobody executes
        INVLPG for it here.  Same epoch mechanics as :meth:`flush_root`,
        zero cycles."""
        self._epochs[root_pfn] = self._epochs.get(root_pfn, 0) + 1
        live = self._live.pop(root_pfn, 0)
        self._live_total -= live

    def flush_all(self, reason="tlb-flush-all"):
        """MOV CR3 semantics: everything goes; cost scales with occupancy."""
        self.cycles.charge(
            TLB_ENTRY_FLUSH_CYCLES * max(1, self._live_total // 8), reason
        )
        self._entries.clear()
        self._live.clear()
        self._live_total = 0
        # epochs stay: they are monotone per root across the TLB's life

    def _live_items(self):
        """Live entries in LRU order — the logical TLB content."""
        epochs = self._epochs
        for (root_pfn, vpn), (epoch, translation) in self._entries.items():
            if epoch == epochs.get(root_pfn, 0):
                yield (root_pfn, vpn), translation

    def root_index_sizes(self):
        """root_pfn -> live-entry count (diagnostics)."""
        return {root: n for root, n in self._live.items() if n}

    def __len__(self):
        return self._live_total
