"""Differential suite: the optimized data path vs its reference twin.

PR 4 rebuilt the hot data path (keystream line cache, wide-XOR line
crypto, span-batched multi-line transfers, single-line short circuits)
under one invariant: *only wall-clock changes*.  These tests drive
:class:`MemoryController` and :class:`ReferenceMemoryController` in
lockstep over long randomized op sequences and require byte-identical
reads, byte-identical final DRAM and identical cycle ledgers — totals,
per-reason buckets and event counts.  The crypto primitives get the
same treatment against their ``_reference_*`` oracles, and the
structural attack surfaces (cross-ASID plaintext-cache hit, replay,
key rotation) are re-pinned on the optimized path.  A whole booted
:class:`~repro.system.System` must also end a guest workload with the
same digest, ledger and DRAM on either controller.
"""

import random

import pytest

from repro.common import crypto
from repro.common.constants import CACHE_LINE, PAGE_SIZE
from repro.hw import machine
from repro.hw.cycles import CycleCounter
from repro.hw.memctrl import (
    MemoryController,
    ReferenceMemoryController,
    line_tweak,
)
from repro.hw.memory import PhysicalMemory
from repro.hw.tlb import Tlb
from repro.system import GuestOwner, System
from repro.workloads.guestprogs import CryptoWorker

KEY_A = b"A" * 16
KEY_B = b"B" * 16

FRAMES = 32
SPAN = FRAMES * PAGE_SIZE
ASIDS = (1, 2)


def _pair(cache_lines=16):
    """One optimized and one reference controller over identical state."""
    pair = []
    for cls in (MemoryController, ReferenceMemoryController):
        ctl = cls(PhysicalMemory(FRAMES), CycleCounter(),
                  cache_lines=cache_lines)
        for asid in ASIDS:
            ctl.install_key(asid, bytes([asid * 17]) * 16)
        pair.append(ctl)
    return pair


def _random_ops(rng, count):
    """A mixed trace: encrypted/plain reads and writes, DMA, cache
    flushes and mid-trace key rotations."""
    ops = []
    sizes = (1, 7, 8, 63, 64, 65, 256, 1024, 4096)
    for _ in range(count):
        roll = rng.random()
        size = rng.choice(sizes)
        pa = rng.randrange(0, SPAN - size)
        asid = rng.choice(ASIDS)
        if roll < 0.35:
            ops.append(("read", pa, size, asid))
        elif roll < 0.70:
            data = bytes(rng.getrandbits(8) for _ in range(size))
            ops.append(("write", pa, data, asid))
        elif roll < 0.80:
            ops.append(("dma_read", pa, size))
        elif roll < 0.90:
            data = bytes(rng.getrandbits(8) for _ in range(size))
            ops.append(("dma_write", pa, data))
        elif roll < 0.94:
            ops.append(("plain_write", pa,
                        bytes(rng.getrandbits(8) for _ in range(size))))
        elif roll < 0.97:
            ops.append(("flush_cache",))
        else:
            ops.append(("rotate", asid,
                        bytes(rng.getrandbits(8) for _ in range(16))))
    return ops


def _apply(ctl, op):
    kind = op[0]
    if kind == "read":
        return ctl.read(op[1], op[2], c_bit=True, asid=op[3])
    if kind == "write":
        ctl.write(op[1], op[2], c_bit=True, asid=op[3])
    elif kind == "dma_read":
        return ctl.dma_read(op[1], op[2])
    elif kind == "dma_write":
        ctl.dma_write(op[1], op[2])
    elif kind == "plain_write":
        ctl.write(op[1], op[2])
    elif kind == "flush_cache":
        ctl.flush_cache()
    elif kind == "rotate":
        ctl.install_key(op[1], op[2])
    return None


@pytest.mark.parametrize("seed", [0xFA57, 0x0DD1, 0xB16B00B5])
def test_randomized_lockstep_equivalence(seed):
    """>=1000 mixed ops per seed: every read byte-equal, final DRAM
    byte-equal, cycle ledgers identical to the event."""
    rng = random.Random(seed)
    fast, ref = _pair()
    for op in _random_ops(rng, 1200):
        assert _apply(fast, op) == _apply(ref, op), op
    assert fast.memory.dump() == ref.memory.dump()
    assert fast.cycles.total == ref.cycles.total
    assert fast.cycles.by_reason == ref.cycles.by_reason
    assert fast.cycles.events == ref.cycles.events


def _system_workload(fidelius):
    """Boot one host, run the span-batched CryptoWorker on an encrypted
    working set larger than the plaintext cache, return (digest,
    machine)."""
    crypto.clear_keystream_cache()
    system = System.create(fidelius=fidelius, frames=1024, seed=0xBE7C)
    pages = 72
    if fidelius:
        _domain, ctx = system.boot_protected_guest(
            "eq", GuestOwner(seed=0xBE7C), payload=b"eq",
            guest_frames=pages + 48)
    else:
        _domain, ctx = system.create_baseline_sev_guest(
            "eq", guest_frames=pages + 48)
    worker = CryptoWorker(ctx, first_gfn=40, pages=pages, encrypted=True,
                          batched=True)
    return worker.run(2), system.machine


@pytest.mark.parametrize("fidelius", [False, True],
                         ids=["sev-baseline", "fidelius"])
def test_whole_system_matches_on_the_reference_controller(fidelius,
                                                          monkeypatch):
    """The same System booted twice, the second time with every Machine
    built around the reference controller: equal workload digest,
    equal cycle ledger from boot on, byte-equal DRAM."""
    fast_digest, fast = _system_workload(fidelius)
    monkeypatch.setattr(machine, "MemoryController",
                        ReferenceMemoryController)
    ref_digest, ref = _system_workload(fidelius)
    assert type(fast.memctrl) is MemoryController
    assert type(ref.memctrl) is ReferenceMemoryController
    assert fast_digest == ref_digest
    assert fast.cycles.total == ref.cycles.total
    assert fast.cycles.by_reason == ref.cycles.by_reason
    assert fast.cycles.events == ref.cycles.events
    assert fast.memory.dump() == ref.memory.dump()


def test_cache_state_tracks_reference():
    """The plaintext caches evolve identically (same lines resident),
    so every later hit/miss — and its charge — lines up."""
    rng = random.Random(0xCAC4E)
    fast, ref = _pair(cache_lines=4)
    for op in _random_ops(rng, 600):
        _apply(fast, op)
        _apply(ref, op)
        assert fast.cached_lines() == ref.cached_lines()


# -- crypto primitive differentials ------------------------------------------

def test_keystream_matches_reference():
    rng = random.Random(0x5EED)
    for _ in range(300):
        key = bytes(rng.getrandbits(8) for _ in range(16))
        tweak = rng.getrandbits(64).to_bytes(8, "little")
        length = rng.randrange(0, 200)
        offset = rng.randrange(0, 100)
        assert crypto.keystream(key, tweak, length, offset) == \
            crypto._reference_keystream(key, tweak, length, offset)


def test_xex_matches_reference():
    rng = random.Random(0xA11)
    for _ in range(300):
        key = bytes(rng.getrandbits(8) for _ in range(16))
        tweak = rng.getrandbits(64).to_bytes(8, "little")
        data = bytes(rng.getrandbits(8) for _ in range(rng.randrange(0, 150)))
        offset = rng.randrange(0, 80)
        assert crypto.xex_encrypt(key, tweak, data, offset) == \
            crypto._reference_xex_encrypt(key, tweak, data, offset)


def test_xex_line_matches_reference():
    rng = random.Random(0x11E)
    for _ in range(300):
        key = bytes(rng.getrandbits(8) for _ in range(16))
        line_pa = rng.randrange(0, 1 << 30) & ~(CACHE_LINE - 1)
        length = rng.randrange(1, CACHE_LINE + 1)
        offset = rng.randrange(0, CACHE_LINE - length + 1)
        data = bytes(rng.getrandbits(8) for _ in range(length))
        assert crypto.xex_line_encrypt(key, line_pa, data, offset) == \
            crypto._reference_xex_encrypt(
                key, line_tweak(line_pa), data, offset)


def test_xex_line_is_involution():
    key = b"K" * 16
    data = bytes(range(64))
    ct = crypto.xex_line_encrypt(key, 0x1000, data)
    assert ct != data
    assert crypto.xex_line_decrypt(key, 0x1000, ct) == data


# -- key lifetime hygiene ----------------------------------------------------

def test_reactivate_with_new_key_changes_ciphertext():
    """Re-ACTIVATE an ASID with a fresh key: the same plaintext at the
    same PA must produce different DRAM bytes — no stale keystream may
    be served from the simulator cache."""
    ctl = MemoryController(PhysicalMemory(FRAMES), CycleCounter(),
                           cache_lines=8)
    ctl.install_key(1, KEY_A)
    ctl.write(0x2000, b"S" * CACHE_LINE, c_bit=True, asid=1)
    before = ctl.memory.read(0x2000, CACHE_LINE)
    ctl.uninstall_key(1)
    ctl.install_key(1, KEY_B)              # the re-ACTIVATE
    ctl.flush_cache()
    ctl.write(0x2000, b"S" * CACHE_LINE, c_bit=True, asid=1)
    after = ctl.memory.read(0x2000, CACHE_LINE)
    assert before != after


def test_install_key_purges_keystream_cache():
    ctl = MemoryController(PhysicalMemory(FRAMES), CycleCounter(),
                           cache_lines=8)
    ctl.install_key(1, KEY_A)
    ctl.write(0x2000, b"S" * CACHE_LINE, c_bit=True, asid=1)
    ctl.read(0x4000, 2 * CACHE_LINE, c_bit=True, asid=1)  # a span read
    assert any(entry[0] == KEY_A for entry in crypto._line_cache)
    assert any(entry[0] == KEY_A for entry in crypto._span_cache)
    ctl.install_key(1, KEY_B)              # rotation purges KEY_A
    assert not any(entry[0] == KEY_A for entry in crypto._line_cache)
    assert not any(entry[0] == KEY_A for entry in crypto._span_cache)


def test_uninstall_key_purges_keystream_cache():
    ctl = MemoryController(PhysicalMemory(FRAMES), CycleCounter(),
                           cache_lines=8)
    ctl.install_key(2, KEY_B)
    ctl.read(0x3000, CACHE_LINE, c_bit=True, asid=2)
    assert any(entry[0] == KEY_B for entry in crypto._line_cache)
    ctl.uninstall_key(2)
    assert not any(entry[0] == KEY_B for entry in crypto._line_cache)


# -- the attack surfaces survive the optimization ----------------------------

def test_cross_asid_plaintext_cache_leak_still_reproduces():
    """Section 6.2's channel: a cached plaintext line is served to a
    reader with a *different* ASID.  The fast path must not fix this —
    it is a modelled hardware property."""
    ctl = MemoryController(PhysicalMemory(FRAMES), CycleCounter(),
                           cache_lines=8)
    ctl.install_key(1, KEY_A)
    ctl.install_key(2, KEY_B)
    secret = b"victim secret 16"
    ctl.write(0x4000, secret, c_bit=True, asid=1)
    # attacker (asid 2, different key) reads while the line is cached
    assert ctl.read(0x4000, 16, c_bit=True, asid=2) == secret
    # once the cache is flushed the attacker sees garbage again
    ctl.flush_cache()
    assert ctl.read(0x4000, 16, c_bit=True, asid=2) != secret


def test_replay_at_same_pa_still_works():
    ctl = MemoryController(PhysicalMemory(FRAMES), CycleCounter(),
                           cache_lines=8)
    ctl.install_key(1, KEY_A)
    ctl.write(0x5000, b"stale version 01", c_bit=True, asid=1)
    stale_ct = ctl.dma_read(0x5000, 16)
    ctl.write(0x5000, b"fresh version 02", c_bit=True, asid=1)
    ctl.dma_write(0x5000, stale_ct)        # hypervisor replays old bytes
    assert ctl.read(0x5000, 16, c_bit=True, asid=1) == b"stale version 01"


# -- TLB model ----------------------------------------------------------------

def test_tlb_eviction_is_lru_not_fifo():
    tlb = Tlb(CycleCounter(), capacity=2)
    tlb.insert(1, 0x10, "t10")
    tlb.insert(1, 0x20, "t20")
    assert tlb.lookup(1, 0x10) == "t10"    # refresh the older entry
    tlb.insert(1, 0x30, "t30")             # evicts 0x20, not 0x10
    assert tlb.lookup(1, 0x10) == "t10"
    assert tlb.lookup(1, 0x20) is None
    assert tlb.lookup(1, 0x30) == "t30"
    assert tlb.evictions == 1


def test_tlb_flush_root_only_touches_that_root():
    cycles = CycleCounter()
    tlb = Tlb(cycles, capacity=16)
    for vpn in range(3):
        tlb.insert(7, vpn, "a%d" % vpn)
    tlb.insert(9, 0x99, "b")
    snap = cycles.snapshot()
    tlb.flush_root(7)
    assert cycles.since(snap) > 0
    assert len(tlb) == 1
    assert tlb.lookup(9, 0x99) == "b"
    assert tlb.root_index_sizes() == {9: 1}


def test_tlb_flush_empty_root_charges_nothing():
    cycles = CycleCounter()
    tlb = Tlb(cycles, capacity=16)
    tlb.insert(7, 1, "x")
    snap = cycles.snapshot()
    tlb.flush_root(12345)                  # no entries for this root
    assert cycles.since(snap) == 0


def test_tlb_eviction_keeps_root_index_consistent():
    tlb = Tlb(CycleCounter(), capacity=3)
    for i in range(10):
        tlb.insert(i % 2, i, "t%d" % i)
    sizes = tlb.root_index_sizes()
    assert sum(sizes.values()) == len(tlb) == 3
    # the per-root live counts agree with the live entries themselves
    live = {}
    for (root, _vpn), _t in tlb._live_items():
        live[root] = live.get(root, 0) + 1
    assert live == sizes


def test_tlb_flush_root_is_epoch_tagged_and_lazy():
    """flush_root is O(1): an epoch bump retires the root's entries,
    which then die lazily on lookup — observable behavior identical to
    an eager walk-and-delete."""
    cycles = CycleCounter()
    tlb = Tlb(cycles, capacity=16)
    for vpn in range(5):
        tlb.insert(7, vpn, "r7-%d" % vpn)
    tlb.insert(9, 0x99, "r9")
    assert tlb.root_epoch(7) == 0
    tlb.flush_root(7)
    assert tlb.root_epoch(7) == 1
    assert len(tlb) == 1                      # live view shrank at once
    # the flushed entries are logically gone: lookups miss (and reclaim)
    misses = tlb.misses
    assert tlb.lookup(7, 0) is None
    assert tlb.misses == misses + 1
    assert tlb.lookup(9, 0x99) == "r9"        # other root untouched
    # refilling after the flush works under the new epoch
    tlb.insert(7, 0, "fresh")
    assert tlb.lookup(7, 0) == "fresh"
    assert tlb.root_index_sizes() == {7: 1, 9: 1}


def test_tlb_stale_entries_are_free_eviction_victims():
    """Entries retired by an epoch bump are reclaimed by the eviction
    scan without counting as evictions — just like entries an eager
    flush_root would already have deleted."""
    tlb = Tlb(CycleCounter(), capacity=4)
    for vpn in range(4):
        tlb.insert(3, vpn, "v%d" % vpn)
    tlb.flush_root(3)
    assert len(tlb) == 0
    # four inserts into the full-of-stale TLB must not evict anything
    for vpn in range(4):
        tlb.insert(5, vpn, "w%d" % vpn)
    assert tlb.evictions == 0
    assert len(tlb) == 4
    # a fifth insert now evicts a live entry, LRU first
    tlb.insert(5, 99, "w99")
    assert tlb.evictions == 1
    assert tlb.lookup(5, 0) is None


def test_tlb_new_incarnation_retires_root_without_charging():
    """Migration-receive wiring: the rebuilt guest's TLB starts cold,
    and nobody pays INVLPG cycles for entries the old host owned."""
    cycles = CycleCounter()
    tlb = Tlb(cycles, capacity=16)
    for vpn in range(6):
        tlb.insert(11, vpn, "t%d" % vpn)
    snap = cycles.snapshot()
    epoch = tlb.root_epoch(11)
    tlb.new_incarnation(11)
    assert cycles.since(snap) == 0            # unlike flush_root
    assert tlb.root_epoch(11) == epoch + 1
    assert len(tlb) == 0
    assert tlb.lookup(11, 0) is None
    # bumps even when the root has no live entries (fresh incarnation
    # on a host that never ran it)
    tlb.new_incarnation(11)
    assert tlb.root_epoch(11) == epoch + 2
