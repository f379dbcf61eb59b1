"""The simulated-cycle ledger, folded into FID003 layers, and digests.

Every charge site passes a reason string to ``CycleCounter.charge``;
:data:`REASON_LAYER` says which layer's mechanism each reason models.
This is the paper's clock (simulated cycles), never summed with host
time.  A reason missing from the table is reported in an ``unmapped``
bucket, never dropped, so a new charge site shows up in the output.
"""

import hashlib
import json

#: reason string -> FID003 layer, one row per charge site's reason
REASON_LAYER = {
    # hw: memory controller, TLB, page walks, machine boot
    "mem-read": "hw",
    "mem-write": "hw",
    "mem-read-enc": "hw",
    "mem-write-enc": "hw",
    "mem-read-cached": "hw",
    "dma-read": "hw",
    "dma-write": "hw",
    "pt-walk": "hw",
    "tlb-flush-entry": "hw",
    "tlb-flush-root": "hw",
    "tlb-flush-all": "hw",
    "boot": "hw",
    "mov-cr3": "hw",
    "mov-cr3-rollback": "hw",
    # xen: exits, hypercall service, NPT fills
    "vmexit-roundtrip": "xen",
    "hypercall": "xen",
    "npt-fill": "xen",
    "xen-boot": "xen",
    # core: Fidelius gates, shadowing, install and I/O protection
    "gate1": "core",
    "gate1-write": "core",
    "gate2": "core",
    "gate3": "core",
    "cr3-switch-gate": "core",
    "shadow-exit": "core",
    "shadow-verify": "core",
    "fidelius-install": "core",
    "fidelius-text": "core",
    "io-encrypt-aes-ni": "core",
    "io-decrypt-aes-ni": "core",
    "io-encrypt-software": "core",
    "io-decrypt-software": "core",
    "io-crypt-sev-api": "core",
    # workloads: the fio device model
    "disk-device": "workloads",
}

GATE_REASONS = ("gate1", "gate2", "gate3", "cr3-switch-gate")


def snapshot(counters):
    """Copies of several ``CycleCounter``\\ s' per-reason ledgers."""
    return [(dict(c.by_reason), dict(c.events)) for c in counters]


def delta(before, counters):
    """Per-counter ``{reason: [cycles, events]}`` charged since
    ``before`` (a :func:`snapshot` of the same counters)."""
    out = []
    for (cycles0, events0), counter in zip(before, counters):
        ledger = {}
        for reason, cycles in counter.by_reason.items():
            d_cycles = cycles - cycles0.get(reason, 0)
            d_events = counter.events[reason] - events0.get(reason, 0)
            if d_cycles or d_events:
                ledger[reason] = [d_cycles, d_events]
        out.append(ledger)
    return out


def merged(ledgers):
    total = {}
    for ledger in ledgers:
        for reason, (cycles, events) in ledger.items():
            entry = total.setdefault(reason, [0, 0])
            entry[0] += cycles
            entry[1] += events
    return total


def by_layer(ledger):
    """Cycles per layer; reasons without a row land in ``unmapped``."""
    out = {"unmapped": 0}
    for reason, (cycles, _events) in ledger.items():
        layer = REASON_LAYER.get(reason, "unmapped")
        out[layer] = out.get(layer, 0) + cycles
    return out


def unmapped_reasons(ledger):
    return sorted(r for r in ledger if r not in REASON_LAYER)


def events(ledger, *reasons):
    return sum(ledger.get(reason, (0, 0))[1] for reason in reasons)


def digest(value):
    """SHA-256 over a canonical JSON rendering."""
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
