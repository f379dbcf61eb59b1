"""Guest-level batched memory ops vs the per-access loop.

:meth:`GuestContext.batch` front-loads the NPT translations for a list
of span ops and funnels them through one
:meth:`MemoryController.run_batch` call.  Two identically-seeded
systems, one driven per-access and one driven batched with the *same
op order*, must end byte-identical: guest-visible bytes, host DRAM,
the full cycle ledger and the machine state fingerprint — which is
also what makes the batched results safe inside the deterministic
runner digests.
"""

import hashlib

import pytest

from repro.common.constants import PAGE_SIZE
from repro.runner import deterministic_digest
from repro.system import GuestOwner, System
from repro.workloads.guestprogs import CryptoWorker
from repro.common.errors import XenError
from repro.hw.pagetable import entry_pfn, make_entry

SEED = 0xBA7C
PAGES = 6
FIRST_GFN = 40


def _booted():
    system = System.create(fidelius=True, frames=2048, seed=SEED)
    owner = GuestOwner(seed=SEED)
    _domain, ctx = system.boot_protected_guest(
        "batch", owner, payload=b"batch", guest_frames=64)
    return system, ctx


def _seed_pages(ctx):
    for i in range(PAGES):
        ctx.write((FIRST_GFN + i) * PAGE_SIZE,
                  bytes([i + 1]) * PAGE_SIZE)


class TestBatchEqualsPerAccess:
    def test_same_order_same_everything(self):
        """Per-page-ordered batches against the identical per-access
        sequence: bytes, DRAM, cycle ledger and machine fingerprint all
        equal — the strict form of the equivalence."""
        sys_a, ctx_a = _booted()
        sys_b, ctx_b = _booted()
        _seed_pages(ctx_a)
        _seed_pages(ctx_b)

        results_a, results_b = [], []
        for i in range(PAGES):
            gpa = (FIRST_GFN + i) * PAGE_SIZE
            page = ctx_a.read(gpa, PAGE_SIZE)
            digest = hashlib.sha256(page).digest()
            ctx_a.write(gpa, digest)
            results_a.append(digest.hex())

            span = ctx_b.batch([("r", gpa, PAGE_SIZE)])[0]
            assert span == page
            hashed = hashlib.sha256(span).digest()
            ctx_b.batch([("w", gpa, hashed)])
            results_b.append(hashed.hex())

        assert results_a == results_b
        assert deterministic_digest(results_a) \
            == deterministic_digest(results_b)
        for i in range(PAGES):
            gpa = (FIRST_GFN + i) * PAGE_SIZE
            assert ctx_a.read(gpa, PAGE_SIZE) == ctx_b.read(gpa, PAGE_SIZE)
        assert sys_a.machine.memory.dump() == sys_b.machine.memory.dump()
        assert sys_a.machine.cycles.total == sys_b.machine.cycles.total
        assert sys_a.machine.cycles.by_reason \
            == sys_b.machine.cycles.by_reason
        assert sys_a.machine.cycles.events == sys_b.machine.cycles.events

    def test_multi_page_span_read_crosses_page_boundary(self):
        _system, ctx = _booted()
        _seed_pages(ctx)
        first_gpa = FIRST_GFN * PAGE_SIZE
        span = ctx.batch([("r", first_gpa, PAGES * PAGE_SIZE)])[0]
        want = b"".join(ctx.read(first_gpa + i * PAGE_SIZE, PAGE_SIZE)
                        for i in range(PAGES))
        assert span == want

    def test_hash_matches_read_then_sha256(self):
        _system, ctx = _booted()
        _seed_pages(ctx)
        gpa = FIRST_GFN * PAGE_SIZE
        digest = ctx.batch([("h", gpa, 3 * PAGE_SIZE)])[0]
        assert digest == hashlib.sha256(ctx.read(gpa, 3 * PAGE_SIZE)).digest()

    def test_batched_write_is_readable_per_access(self):
        _system, ctx = _booted()
        data = bytes(range(256)) * (2 * PAGE_SIZE // 256)
        gpa = FIRST_GFN * PAGE_SIZE
        ctx.batch([("w", gpa, data)])
        assert ctx.read(gpa, len(data)) == data

    def test_unknown_op_kind_rejected(self):
        _system, ctx = _booted()
        with pytest.raises(XenError):
            ctx.batch([("z", FIRST_GFN * PAGE_SIZE, 8)])


class TestBatchedCryptoWorker:
    def test_batched_worker_digests_and_memory_match_per_access(self):
        """The guest-macro workload itself: the span-read batched
        CryptoWorker produces the same round digests and the same final
        guest memory as the per-access original."""
        _sys_a, ctx_a = _booted()
        _sys_b, ctx_b = _booted()
        plain = CryptoWorker(ctx_a, first_gfn=FIRST_GFN, pages=4)
        fast = CryptoWorker(ctx_b, first_gfn=FIRST_GFN, pages=4,
                            batched=True)
        assert plain.run(rounds=3) == fast.run(rounds=3)
        for i in range(4):
            gpa = (FIRST_GFN + i) * PAGE_SIZE
            assert ctx_a.read(gpa, PAGE_SIZE) == ctx_b.read(gpa, PAGE_SIZE)


@pytest.mark.parametrize("fidelius", [False, True],
                         ids=["sev-baseline", "fidelius-plain"])
class TestBatchOnLazyNpt:
    """A host that fills the NPT on demand: a batch's translations take
    the NPF exits, one page at a time, before its data moves."""

    GUEST_FRAMES = 640

    def _lazy(self, fidelius):
        """An SEV guest on a bare host, or an unencrypted guest on a
        Fidelius host (whose NPT fills go through the type 1 gate);
        either way some pages carry the guest's C-bit."""
        system = System.create(fidelius=fidelius, frames=2048, seed=SEED,
                               lazy_npt=True)
        if fidelius:
            domain, ctx = system.create_plain_guest(
                "lazy", guest_frames=self.GUEST_FRAMES)
        else:
            domain, ctx = system.create_baseline_sev_guest(
                "lazy", guest_frames=self.GUEST_FRAMES)
        for gfn in (40, 41, 42, 510, 511, 512, 513):
            ctx.set_page_encrypted(gfn)
        return system, domain, ctx

    def _ops(self):
        """Writes, reads and hashes over gfns no access has populated:
        pages with and without the guest's C-bit, a span across the
        boundary between two leaf tables, and ops that revisit pages an
        earlier op of the same batch faulted in."""
        return [
            ("w", 40 * PAGE_SIZE + 100, bytes(range(256)) * 40),
            ("r", 39 * PAGE_SIZE + 4000, 3 * PAGE_SIZE),
            ("w", 510 * PAGE_SIZE + 7, b"\x5a" * (3 * PAGE_SIZE)),
            ("h", 509 * PAGE_SIZE, 6 * PAGE_SIZE),
            ("w", 600 * PAGE_SIZE, b"tail page"),
            ("r", 41 * PAGE_SIZE, 64),
            ("h", 600 * PAGE_SIZE, PAGE_SIZE),
        ]

    def test_faulting_batch_equals_per_access(self, fidelius):
        """Same results, cycle ledger (``npt-fill`` included), DRAM and
        NPT leaves as the per-access loop on a twin host."""
        sys_a, dom_a, ctx_a = self._lazy(fidelius)
        sys_b, dom_b, ctx_b = self._lazy(fidelius)
        gfns = {op[1] // PAGE_SIZE for op in self._ops()}
        assert not any(dom_a.npt.maps(gfn * PAGE_SIZE) for gfn in gfns)

        per_access = []
        for kind, gpa, arg in self._ops():
            if kind == "w":
                per_access.append(ctx_a.write(gpa, arg))
            elif kind == "r":
                per_access.append(ctx_a.read(gpa, arg))
            else:
                per_access.append(hashlib.sha256(ctx_a.read(gpa, arg))
                                  .digest())
        batched = ctx_b.batch(self._ops())

        assert batched == per_access
        assert sys_a.machine.cycles.events["npt-fill"] \
            == sys_b.machine.cycles.events["npt-fill"] == 11
        assert sys_a.machine.cycles.total == sys_b.machine.cycles.total
        assert sys_a.machine.cycles.by_reason \
            == sys_b.machine.cycles.by_reason
        assert sys_a.machine.cycles.events == sys_b.machine.cycles.events
        assert sys_a.machine.memory.dump() == sys_b.machine.memory.dump()
        assert dom_a.npt.leaf_mappings() == dom_b.npt.leaf_mappings()


def _relocating_host():
    """A lazy SEV host whose NPF handler, the first time it fills a
    page, also moves the faulting page's leaf table to a fresh frame
    and points gfn 41 at gfn 40's frame there: the host rewrites the
    NPT above the leaves while a batch is running."""
    system = System.create(fidelius=False, frames=2048, seed=SEED,
                           lazy_npt=True)
    domain, ctx = system.create_baseline_sev_guest("moved", guest_frames=64)
    ctx.write(40 * PAGE_SIZE, b"A" * 64)
    ctx.write(41 * PAGE_SIZE, b"B" * 64)
    hypervisor = system.hypervisor
    memory = system.machine.memory
    fill = hypervisor._handle_npf

    def fill_then_relocate(vcpu):
        fill(vcpu)
        if hypervisor.relocated:
            return
        hypervisor.relocated = True
        npt = domain.npt
        table = npt.entry_pa(0, level=2)
        old = memory.read_u64(table)
        new = system.machine.allocator.alloc()
        memory.write_frame(new, memory.read_frame(entry_pfn(old)))
        memory.write_u64(new * PAGE_SIZE + 41 * 8,
                         npt.read_entry(40 * PAGE_SIZE))
        memory.write_u64(table, make_entry(new, old & 0xFFF))
        npt.table_pfns.add(new)

    hypervisor.relocated = False
    hypervisor._handle_npf = fill_then_relocate
    return ctx


def test_batch_drops_its_leaf_memo_when_the_host_rewrites_the_npt():
    """An NPF exit mid-batch may move a leaf table: the ops after it
    must walk the new table, as the per-access loop does, not the leaf
    table located before the exit."""
    ops = [("r", 41 * PAGE_SIZE, 64), ("w", 42 * PAGE_SIZE, b"fault"),
           ("r", 41 * PAGE_SIZE, 64)]
    ctx_a = _relocating_host()
    per_access = [ctx_a.read(41 * PAGE_SIZE, 64),
                  ctx_a.write(42 * PAGE_SIZE, b"fault"),
                  ctx_a.read(41 * PAGE_SIZE, 64)]
    assert per_access == [b"B" * 64, None, b"A" * 64]
    assert _relocating_host().batch(ops) == per_access
