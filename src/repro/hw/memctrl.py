"""The memory controller with the SME/SEV AES engine.

Faithful structural properties (paper Sections 2.1, 2.2, 6.1, 6.2):

* Keys live in *slots* indexed by ASID (slot 0 is the host SME key).
  They are installed only by the SEV firmware's ACTIVATE command; no
  software ever reads a slot back.
* Encryption is deterministic and tweaked by the physical cache-line
  address.  Ciphertext replayed at the same physical address decrypts to
  the stale plaintext (the replay attack works at this layer);
  ciphertext moved elsewhere decrypts to garbage.
* There is **no integrity** (Section 8 suggests a Bonsai Merkle Tree):
  a wrong key yields garbage plaintext, and corrupted ciphertext is
  accepted silently.  The line keystream is bit-malleable, so a flipped
  ciphertext bit flips exactly the matching plaintext bit (the
  ``rowhammer-bit-flip`` attack's 'controlled flip'), where SEV's
  16-byte AES blocks would garble the whole block (ROADMAP.md's
  cipher-fidelity item).
* The cache holds *plaintext* lines indexed purely by physical address.
  An encrypted read that hits the cache is served the plaintext even if
  the reader's ASID (and hence key) differs — this is the cache channel
  behind the inter-VM remapping attack of Section 6.2.
* The DMA port moves raw bus bytes and never touches the keys, so DMA
  from the driver domain sees ciphertext of protected pages (and this is
  why the PV I/O path needs the Fidelius I/O encoding of Section 4.3.5).

Threat-model note on the keystream cache: the fast data path leans on
``repro.common.crypto``'s LRU keystream-line cache, which is keyed by
the key bytes and therefore *holds key-derived secret material*.  That
cache is simulator state, not architectural state — nothing in the
modelled machine can address it, so it adds no attack surface to the
model — but key lifetime hygiene still applies: ``install_key`` /
``uninstall_key`` purge every entry derived from the outgoing key, so a
re-ACTIVATEd ASID can neither be served stale keystream nor leave a
retired key's stream lingering in host memory.  The *plaintext* line
cache below is architectural and deliberately leaky (see above).

The read/write fast paths (single-line short-circuit, the multi-line
read's walk over resident lines only, skipped write-allocate on a
full-line overwrite) change only wall-clock cost: cycle charges, all
functional outputs and the plaintext cache's LRU order are
bit-identical to :class:`ReferenceMemoryController`, the kept-simple
twin that the differential suite drives in lockstep with this class.
"""

import hashlib
from collections import OrderedDict
from itertools import compress
from hashlib import sha256 as _sha256

from repro.common import crypto
from repro.common.constants import (
    CACHE_LINE,
    CACHE_LINE_SHIFT,
    ENC_LINE_EXTRA_CYCLES,
    HOST_ASID,
    L1_HIT_CYCLES,
    LINE_TRANSFER_CYCLES,
    MAX_ASID,
)
from repro.common.errors import PhysicalMemoryError, ReproError


class KeySlotError(ReproError):
    """Access with an ASID whose key slot is empty."""


def line_tweak(line_pa):
    """The position tweak: the physical address of the cache line."""
    return line_pa.to_bytes(8, "little")


#: one encrypted line on the bus: transfer plus the AES-engine tax
_ENC_LINE_CYCLES = LINE_TRANSFER_CYCLES + ENC_LINE_EXTRA_CYCLES


def split_lines(pa, length):
    """Split [pa, pa+length) into (line_pa, offset_in_line, chunk_len)."""
    if length < 0:
        raise PhysicalMemoryError("negative region length %d" % length)
    line_pa = (pa >> CACHE_LINE_SHIFT) << CACHE_LINE_SHIFT
    off = pa - line_pa
    if off + length <= CACHE_LINE:
        # Dominant case: the region sits inside one line — no loop.
        return [(line_pa, off, length)] if length else []
    pieces = []
    cursor = pa
    remaining = length
    while remaining:
        line_pa = (cursor >> CACHE_LINE_SHIFT) << CACHE_LINE_SHIFT
        off = cursor - line_pa
        take = min(remaining, CACHE_LINE - off)
        pieces.append((line_pa, off, take))
        cursor += take
        remaining -= take
    return pieces


def encrypt_region(key, pa, plaintext):
    """Ciphertext bytes as they would sit on DRAM at ``pa`` under ``key``.

    Shared by the memory controller and the SEV firmware (which holds
    guest keys directly and transforms memory images in place).  Runs
    on the cached-keystream wide-XOR fast path; bit-identical to the
    reference construction (``crypto._reference_xex_encrypt`` per line).
    """
    out = bytearray()
    view = memoryview(plaintext)
    pos = 0
    for line_pa, off, take in split_lines(pa, len(plaintext)):
        chunk = view[pos:pos + take]
        pos += take
        out += crypto.xex_line_encrypt(key, line_pa, chunk, off)
    return bytes(out)


#: The keystream construction is an involution, so decryption is identical.
decrypt_region = encrypt_region


class MemoryController:
    """Byte-addressable front end of :class:`PhysicalMemory` with crypto."""

    def __init__(self, memory, cycles, cache_lines=4096):
        self.memory = memory
        self.cycles = cycles
        self._slots = {}
        self._cache = OrderedDict()
        self._cache_lines = cache_lines

    # -- key slot management (issued by the SEV firmware only) -------------

    # fidelint: ignore[FID004] -- priced by SEV firmware command costs
    def install_key(self, asid, key):
        if not 0 <= asid <= MAX_ASID:
            raise KeySlotError("ASID %d out of range" % asid)
        old = self._slots.get(asid)
        if old is not None:
            # Key rotation: no keystream of the outgoing key may survive.
            crypto.forget_key(old)
        self._slots[asid] = bytes(key)

    def uninstall_key(self, asid):
        old = self._slots.pop(asid, None)
        if old is not None:
            crypto.forget_key(old)

    def slot_installed(self, asid):
        return asid in self._slots

    def _key(self, asid):
        key = self._slots.get(asid)
        if key is None:
            raise KeySlotError("no key installed for ASID %d" % asid)
        return key

    # -- plaintext cache ----------------------------------------------------

    def _cache_fill(self, line_pa, plaintext):
        cache = self._cache
        cache[line_pa] = bytes(plaintext)
        cache.move_to_end(line_pa)
        while len(cache) > self._cache_lines:
            cache.popitem(last=False)

    def _cache_lookup(self, line_pa):
        line = self._cache.get(line_pa)
        if line is not None:
            self._cache.move_to_end(line_pa)
        return line

    def _cache_invalidate(self, pa, length):
        first = pa >> CACHE_LINE_SHIFT
        last = (pa + max(length, 1) - 1) >> CACHE_LINE_SHIFT
        for line in range(first, last + 1):
            self._cache.pop(line << CACHE_LINE_SHIFT, None)

    def flush_cache(self):
        """WBINVD equivalent: drop all plaintext lines."""
        self._cache.clear()

    def cached_lines(self):
        return set(self._cache)

    # -- encrypted data path --------------------------------------------------

    def _charge_transfer(self, length, encrypted, reason):
        lines = max(1, (length + CACHE_LINE - 1) // CACHE_LINE)
        per_line = LINE_TRANSFER_CYCLES
        if encrypted:
            per_line += ENC_LINE_EXTRA_CYCLES
        self.cycles.charge(lines * per_line, reason)

    def read(self, pa, length, c_bit=False, asid=HOST_ASID):
        """A CPU-side read; decrypts when the C-bit is set."""
        if not c_bit:
            self._charge_transfer(length, False, "mem-read")
            return self.memory.read(pa, length)
        key = self._slots.get(asid)
        if key is None:
            raise KeySlotError("no key installed for ASID %d" % asid)
        if length <= 0:
            if length < 0:
                raise PhysicalMemoryError("negative region length %d" % length)
            return b""
        line_pa = (pa >> CACHE_LINE_SHIFT) << CACHE_LINE_SHIFT
        off = pa - line_pa
        if off + length <= CACHE_LINE:
            # Single-line fast path: no piece list, one slice out.
            cached = self._cache.get(line_pa)
            if cached is not None:
                # Plaintext hit regardless of who asks: the leak channel.
                self._cache.move_to_end(line_pa)
                self.cycles.charge(L1_HIT_CYCLES, "mem-read-cached")
                return cached[off:off + length]
            plain_line = self._fill_line(key, line_pa)
            if length == CACHE_LINE:
                return plain_line
            return plain_line[off:off + length]
        return self._read_lines(key, pa, length)

    def _read_lines(self, key, pa, length):
        """The multi-line encrypted read: the same hits, misses, runs,
        charges and final LRU order as the per-line reference loop.

        Only lines resident when the read starts can hit, so the walk
        visits just those and treats the gaps between them as misses.
        A resident line that an earlier run of this read has already
        evicted extends the pending run of misses; one still resident
        when the walk reaches it closes the run: the run is decrypted
        in one wide XOR, its evictions are applied, and the line is
        checked again, exactly where the per-line loop would find it
        gone.  A hit moves its line from the old entries onto this
        read's tail; see :meth:`_owe_evictions` for the misses.  At the
        end only the tail's surviving lines are inserted, in access
        order.  The ledger is order-free sums, so each reason is
        charged once for the read.
        """
        cache = self._cache
        first_line = (pa >> CACHE_LINE_SHIFT) << CACHE_LINE_SHIFT
        end = pa + length
        span_end = (((end - 1) >> CACHE_LINE_SHIFT) + 1) << CACHE_LINE_SHIFT
        if pa < 0 or span_end > self.memory.size:
            raise PhysicalMemoryError(
                "read [%#x, %#x) outside physical memory"
                % (first_line, span_end))
        lines = range(first_line, span_end, CACHE_LINE)
        if len(lines) <= len(cache):
            resident = list(compress(lines, map(cache.__contains__, lines)))
        else:
            resident = sorted(filter(lines.__contains__, cache))
        resident.append(span_end)    # a sentinel: it closes the last run
        out_parts = []
        tail = []        # (first line, plaintext) of this read, in order
        tail_lines = 0
        live = 0         # the tail's lines the LRU still holds
        hits = 0
        run_start = first_line       # the pending misses: [run_start, walk)
        for line_pa in resident:
            if line_pa != span_end and line_pa not in cache:
                continue             # evicted by an earlier run
            if line_pa != run_start:
                plain = self._decrypt_run(key, run_start, line_pa)
                out_parts.append(plain[pa - run_start if pa > run_start
                                       else 0:end - run_start])
                tail.append((run_start, plain))
                missed = (line_pa - run_start) >> CACHE_LINE_SHIFT
                tail_lines += missed
                live = self._owe_evictions(live + missed)
                run_start = line_pa
                if line_pa != span_end and line_pa not in cache:
                    continue         # evicted by the run just closed
            if line_pa == span_end:
                break
            cached = cache.pop(line_pa)
            tail.append((line_pa, cached))
            tail_lines += 1
            live += 1
            hits += 1
            out_parts.append(
                cached[pa - line_pa if pa > line_pa else 0:end - line_pa])
            run_start = line_pa + CACHE_LINE
        skip = (tail_lines - live) << CACHE_LINE_SHIFT
        for start, plain in tail:
            width = len(plain)
            if skip >= width:
                skip -= width
            elif width == CACHE_LINE:
                cache[start] = plain
            else:
                cache.update(zip(
                    range(start + skip, start + width, CACHE_LINE),
                    map(plain.__getitem__,
                        map(slice, range(skip, width, CACHE_LINE),
                            range(skip + CACHE_LINE, width + CACHE_LINE,
                                  CACHE_LINE)))))
                skip = 0
        charge_many = self.cycles.charge_many
        charge_many(_ENC_LINE_CYCLES, "mem-read-enc", tail_lines - hits)
        charge_many(L1_HIT_CYCLES, "mem-read-cached", hits)
        return b"".join(out_parts)

    def _owe_evictions(self, live):
        """Evict the LRU's overflow after a run of misses joined a
        read's tail, of which ``live`` lines are still held; returns how
        many still are.

        The LRU order during a read is the untouched old entries, then
        the read's tail.  The overflow comes off the head: old entries
        first, then the tail's oldest lines, which are only counted.
        """
        cache = self._cache
        held = len(cache)
        over = held + live - self._cache_lines
        if over < held:
            for _ in range(over):
                cache.popitem(last=False)
            return live
        cache.clear()
        return live - (over - held)

    def _decrypt_run(self, key, start, stop):
        """Plaintext of the lines ``[start, stop)``: one raw read, one
        keystream request, one wide XOR."""
        width = stop - start
        raw = self.memory.read(start, width)
        if width == CACHE_LINE:
            return crypto.xex_line_decrypt(key, start, raw)
        word = int.from_bytes(raw, "little") ^ crypto.span_keystream_int(
            key, start, width >> CACHE_LINE_SHIFT)
        return word.to_bytes(width, "little")

    def _fill_line(self, key, line_pa):
        """Miss path: fetch, decrypt (wide XOR) and cache one line."""
        self.cycles.charge(_ENC_LINE_CYCLES, "mem-read-enc")
        raw_line = self.memory.read(line_pa, CACHE_LINE)
        plain_line = crypto.xex_line_decrypt(key, line_pa, raw_line)
        # _cache_fill inlined; the decrypt output is already immutable
        # bytes, so the defensive copy is skipped too.
        cache = self._cache
        cache[line_pa] = plain_line
        cache.move_to_end(line_pa)
        if len(cache) > self._cache_lines:
            cache.popitem(last=False)
        return plain_line

    def _write_line(self, key, line_pa, off, chunk):
        """Encrypt and store one chunk confined to a single line."""
        self.cycles.charge(_ENC_LINE_CYCLES, "mem-write-enc")
        take = len(chunk)
        ct = crypto.xex_line_encrypt(key, line_pa, chunk, off)
        cache = self._cache
        if take == CACHE_LINE:
            # Whole line overwritten: the write-allocate fetch would be
            # patched over entirely, so skip it (same bytes, same charges).
            self.memory.write(line_pa, ct)
            cache[line_pa] = bytes(chunk)
        else:
            self.memory.write(line_pa + off, ct)
            cached = cache.get(line_pa)
            if cached is None:
                # Write-allocate: fetch and decrypt the rest of the line.
                raw_line = self.memory.read(line_pa, CACHE_LINE)
                cached = crypto.xex_line_decrypt(key, line_pa, raw_line)
            patched = bytearray(cached)
            patched[off:off + take] = chunk
            cache[line_pa] = bytes(patched)
        cache.move_to_end(line_pa)
        if len(cache) > self._cache_lines:
            cache.popitem(last=False)

    def write(self, pa, data, c_bit=False, asid=HOST_ASID):
        """A CPU-side write; encrypts when the C-bit is set."""
        if not c_bit:
            self._charge_transfer(len(data), False, "mem-write")
            self._cache_invalidate(pa, len(data))
            self.memory.write(pa, data)
            return
        key = self._slots.get(asid)
        if key is None:
            raise KeySlotError("no key installed for ASID %d" % asid)
        length = len(data)
        if length == 0:
            return
        line_pa = (pa >> CACHE_LINE_SHIFT) << CACHE_LINE_SHIFT
        off = pa - line_pa
        if off + length <= CACHE_LINE:
            # Single-line fast path: no piece list, no chunk copies.
            self._write_line(key, line_pa, off,
                             data if isinstance(data, bytes) else bytes(data))
            return
        # Multi-line: encrypt line by line (charging in order) but issue
        # a single contiguous ciphertext write and at most one raw span
        # read for write-allocate — DRAM bytes come out identical to the
        # per-line sequence because the pieces tile [pa, pa+length).
        pieces = split_lines(pa, length)
        first_line = pieces[0][0]
        raw_span = None
        ct_parts = []
        view = memoryview(data)
        pos = 0
        cache = self._cache
        charge = self.cycles.charge
        for line_pa, off, take in pieces:
            # memoryview slice: no bytes() copy on the way to the engine.
            chunk = view[pos:pos + take]
            pos += take
            charge(_ENC_LINE_CYCLES, "mem-write-enc")
            ct_parts.append(crypto.xex_line_encrypt(key, line_pa, chunk, off))
            if take == CACHE_LINE:
                cache[line_pa] = bytes(chunk)
            else:
                cached = cache.get(line_pa)
                if cached is None:
                    # Write-allocate from the pre-write span: decrypting
                    # the old line then patching equals the reference's
                    # decrypt-after-own-ct-write then patch.
                    if raw_span is None:
                        span_len = pieces[-1][0] + CACHE_LINE - first_line
                        raw_span = self.memory.read(first_line, span_len)
                    rel = line_pa - first_line
                    cached = crypto.xex_line_decrypt(
                        key, line_pa, raw_span[rel:rel + CACHE_LINE])
                patched = bytearray(cached)
                patched[off:off + take] = chunk
                cache[line_pa] = bytes(patched)
            cache.move_to_end(line_pa)
            if len(cache) > self._cache_lines:
                cache.popitem(last=False)
        self.memory.write(pa, b"".join(ct_parts))

    # -- batched span ops -----------------------------------------------------

    def run_batch(self, ops):
        """Execute a list of span-level memory ops in order; one result
        per op.  The single batched entry point guest programs use
        (through :meth:`GuestContext.batch`) instead of one Python call
        per access:

        * ``("r", pieces)`` — read; ``pieces`` is a sequence of
          ``(pa, length, c_bit, asid)`` spans whose plaintexts are
          joined into one ``bytes`` result;
        * ``("w", pieces, data)`` — write; the pieces tile ``data`` in
          order; result ``None``;
        * ``("h", pieces)`` — hash; SHA-256 over the concatenated
          plaintext of the pieces, streamed into the hasher so the
          joined bytes are never materialized; result is the digest.

        Each piece runs on the (span-batched) read/write paths, so
        charges, cache evolution and DRAM bytes are identical to issuing
        the same pieces as individual :meth:`read`/:meth:`write` calls —
        the per-access/batched differential suite pins this.
        """
        results = []
        read = self.read
        write = self.write
        for op in ops:
            kind = op[0]
            pieces = op[1]
            if kind == "r":
                if len(pieces) == 1:
                    pa, length, c_bit, asid = pieces[0]
                    results.append(read(pa, length, c_bit=c_bit, asid=asid))
                else:
                    results.append(b"".join(
                        read(pa, length, c_bit=c_bit, asid=asid)
                        for pa, length, c_bit, asid in pieces))
            elif kind == "w":
                view = memoryview(op[2])
                pos = 0
                for pa, length, c_bit, asid in pieces:
                    write(pa, bytes(view[pos:pos + length]),
                          c_bit=c_bit, asid=asid)
                    pos += length
                if pos != len(view):
                    raise PhysicalMemoryError(
                        "write batch pieces tile %d bytes, data has %d"
                        % (pos, len(view)))
                results.append(None)
            elif kind == "h":
                hasher = _sha256()
                for pa, length, c_bit, asid in pieces:
                    hasher.update(read(pa, length, c_bit=c_bit, asid=asid))
                results.append(hasher.digest())
            else:
                raise ReproError("unknown batch op kind %r" % (kind,))
        return results

    # -- DMA port -------------------------------------------------------------

    def dma_read(self, pa, length):
        """Device-initiated read: raw bus bytes, never decrypted."""
        if length < 0:
            raise PhysicalMemoryError("negative DMA length %d" % length)
        self._charge_transfer(length, False, "dma-read")
        return self.memory.read(pa, length)

    def dma_write(self, pa, data):
        """Device-initiated write: raw bus bytes; snoops (invalidates) cache."""
        self._charge_transfer(len(data), False, "dma-write")
        self._cache_invalidate(pa, len(data))
        self.memory.write(pa, data)


class ReferenceMemoryController(MemoryController):
    """The kept-simple twin of the optimized data path.

    ``read``/``write`` here are the pre-optimization implementations,
    running on ``crypto._reference_*`` (no midstates, no keystream
    cache, byte-at-a-time XOR).  The differential suite drives this
    class and :class:`MemoryController` in lockstep over randomized op
    sequences and asserts byte-identical memory, byte-identical reads
    and identical cycle ledgers; it also boots whole systems whose guest
    workload must end with the same digest, ledger and DRAM as on the
    optimized controller.  Do not optimize this class.
    """

    def read(self, pa, length, c_bit=False, asid=HOST_ASID):
        if not c_bit:
            self._charge_transfer(length, False, "mem-read")
            return self.memory.read(pa, length)
        key = self._key(asid)
        out = bytearray()
        for line_pa, off, take in _reference_split_lines(pa, length):
            cached = self._cache_lookup(line_pa)
            if cached is not None:
                self.cycles.charge(L1_HIT_CYCLES, "mem-read-cached")
                out.extend(cached[off:off + take])
                continue
            self._charge_transfer(CACHE_LINE, True, "mem-read-enc")
            raw_line = self.memory.read(line_pa, CACHE_LINE)
            plain_line = crypto._reference_xex_decrypt(
                key, line_tweak(line_pa), raw_line)
            self._cache_fill(line_pa, plain_line)
            out.extend(plain_line[off:off + take])
        return bytes(out)

    def write(self, pa, data, c_bit=False, asid=HOST_ASID):
        if not c_bit:
            self._charge_transfer(len(data), False, "mem-write")
            self._cache_invalidate(pa, len(data))
            self.memory.write(pa, data)
            return
        key = self._key(asid)
        view = memoryview(data)
        for line_pa, off, take in _reference_split_lines(pa, len(data)):
            chunk = bytes(view[:take])
            view = view[take:]
            self._charge_transfer(CACHE_LINE, True, "mem-write-enc")
            ct = crypto._reference_xex_encrypt(
                key, line_tweak(line_pa), chunk, offset=off)
            self.memory.write(line_pa + off, ct)
            cached = self._cache_lookup(line_pa)
            if cached is None:
                raw_line = self.memory.read(line_pa, CACHE_LINE)
                cached = crypto._reference_xex_decrypt(
                    key, line_tweak(line_pa), raw_line)
            patched = bytearray(cached)
            patched[off:off + take] = chunk
            self._cache_fill(line_pa, patched)

    def run_batch(self, ops):
        """The same batched API, implemented as a plain per-access loop
        over the reference ``read``/``write`` — the equivalence oracle
        for the optimized :meth:`MemoryController.run_batch`."""
        results = []
        for op in ops:
            kind = op[0]
            pieces = op[1]
            if kind == "r":
                parts = []
                for pa, length, c_bit, asid in pieces:
                    parts.append(self.read(pa, length,
                                           c_bit=c_bit, asid=asid))
                results.append(b"".join(parts))
            elif kind == "w":
                data = bytes(op[2])
                pos = 0
                for pa, length, c_bit, asid in pieces:
                    self.write(pa, data[pos:pos + length],
                               c_bit=c_bit, asid=asid)
                    pos += length
                if pos != len(data):
                    raise PhysicalMemoryError(
                        "write batch pieces tile %d bytes, data has %d"
                        % (pos, len(data)))
                results.append(None)
            elif kind == "h":
                parts = []
                for pa, length, c_bit, asid in pieces:
                    parts.append(self.read(pa, length,
                                           c_bit=c_bit, asid=asid))
                results.append(hashlib.sha256(b"".join(parts)).digest())
            else:
                raise ReproError("unknown batch op kind %r" % (kind,))
        return results


def _reference_split_lines(pa, length):
    """The original loop-always ``split_lines``, kept for the reference
    controller so its twin keeps zero fast-path code."""
    if length < 0:
        raise PhysicalMemoryError("negative region length %d" % length)
    pieces = []
    cursor = pa
    remaining = length
    while remaining:
        line_pa = (cursor >> CACHE_LINE_SHIFT) << CACHE_LINE_SHIFT
        off = cursor - line_pa
        take = min(remaining, CACHE_LINE - off)
        pieces.append((line_pa, off, take))
        cursor += take
        remaining -= take
    return pieces
