"""Physical attacks (Section 6.1): cold boot / bus snooping, and
Rowhammer (Section 6.2 'violating memory integrity')."""

from repro.common.constants import PAGE_SIZE
from repro.attacks.base import SECRET, attack, make_victim
from repro.xen import hypercalls as hc


@attack("cold-boot-dump", "§6.1 cold boot / bus snooping",
        baseline_succeeds=False)
def cold_boot_dump(system):
    """Dump the DRAM and grep for the victim's secret.  Defended by the
    hardware encryption itself (SEV), on the baseline and under
    Fidelius alike; an *unencrypted* guest would leak (see the
    no-SEV variant in the test suite)."""
    domain, ctx, _ = make_victim(system)
    ctx.hypercall(hc.HC_SCHED_YIELD)
    dump = system.machine.cold_boot_dump()
    found = any(SECRET in frame for frame in dump.values())
    return found, "searched %d frames" % len(dump)


def cold_boot_against_unencrypted_guest(system):
    """The contrast case: the same dump against a guest with no memory
    encryption finds the secret immediately."""
    domain, ctx = system.create_plain_guest("naked", guest_frames=16)
    ctx.write(3 * PAGE_SIZE, SECRET)
    ctx.hypercall(hc.HC_SCHED_YIELD)
    dump = system.machine.cold_boot_dump()
    return any(SECRET in frame for frame in dump.values())


@attack("rowhammer-bit-flip", "§6.2 Rowhammer / §8 integrity gap",
        baseline_succeeds=True, fidelius_blocks=False)
def rowhammer_bit_flip(system):
    """Flip bits in the victim's encrypted frame from an adjacent row.

    Fidelius "cannot strictly eradicate this malevolent bit flipping".
    On SEV hardware the flip garbles the whole 16-byte AES-XEX block,
    so it does not yield an attacker-chosen value.  The simulated
    cipher is a keystream XORed over each line and is bit-malleable:
    the flipped ciphertext bit flips exactly that plaintext bit, so
    ``detail`` reads 'controlled flip' on the baseline and the Fidelius
    host alike.  The confidentiality verdicts do not rest on this.
    Success here means only 'the data changed'; see the BMT extension
    for detection, and ROADMAP.md's cipher-fidelity item for the block
    mode."""
    domain, ctx, secret_gfn = make_victim(system)
    ctx.hypercall(hc.HC_SCHED_YIELD)
    hpa = system.hypervisor.guest_frame_hpfn(domain, secret_gfn) * PAGE_SIZE
    victim_byte = system.machine.memory.read(hpa, 1)[0]
    system.machine.memory.write(hpa, bytes([victim_byte ^ 0x10]))
    system.machine.memctrl.flush_cache()
    after = ctx.read(secret_gfn * PAGE_SIZE, len(SECRET))
    corrupted = after != SECRET
    attacker_controlled = after[:1] == bytes([SECRET[0] ^ 0x10])
    detail = ("corruption silent, not attacker-controlled"
              if corrupted and not attacker_controlled else "controlled flip")
    return corrupted, detail


def rowhammer_with_bmt(system):
    """The Section 8 fix: the same flip with the Bonsai-Merkle-Tree
    extension armed is detected before the guest consumes the data."""
    from repro.core.hwext import BonsaiMerkleTree
    domain, ctx, secret_gfn = make_victim(system)
    ctx.hypercall(hc.HC_SCHED_YIELD)
    hypervisor = system.hypervisor
    covered = [hypervisor.guest_frame_hpfn(domain, g)
               for g in range(domain.guest_frames)]
    tree = BonsaiMerkleTree(system.machine, covered)
    hpa = hypervisor.guest_frame_hpfn(domain, secret_gfn) * PAGE_SIZE
    victim_byte = system.machine.memory.read(hpa, 1)[0]
    system.machine.memory.write(hpa, bytes([victim_byte ^ 0x10]))
    return tree.verify() == [hpa // PAGE_SIZE]
