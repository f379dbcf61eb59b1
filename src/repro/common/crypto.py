"""Simulated cryptography for the reproduction.

The paper's claims never depend on the strength of AES-128: they depend
on *which principal holds which key* and on the structural properties of
the SEV memory encryption mode (deterministic, physical-address-tweaked,
no integrity).  We therefore use a deterministic keyed keystream built
from SHA-256 in counter mode.  It preserves every property the paper's
attacks and defences exercise:

* the same (key, tweak) pair always produces the same ciphertext, so an
  attacker can *replay* stale ciphertext at the same physical address
  (the Hetzelt-Buhren attack of Section 2.2);
* ciphertext moved to a different physical address (different tweak)
  decrypts to garbage;
* decrypting with the wrong key yields garbage, never an error — SEV has
  no hardware integrity protection (Section 8 proposes adding a BMT).

Key agreement is classic finite-field Diffie-Hellman over the RFC 3526
1536-bit MODP group, standing in for the ECDH negotiation between the
guest owner and the SEV firmware.

Fast path vs. reference path
----------------------------

``keystream`` / ``xex_encrypt`` sit under every protected-guest memory
access, so they are optimized for wall-clock speed: each call absorbs
the ``key|tweak|`` prefix into one SHA-256 object and ``hash.copy()``-s
it per counter block, the XOR runs as one wide integer operation, and a
bounded LRU caches the keystream of whole cache lines so a repeated
touch of the same encrypted line costs one dict hit instead of two
hashes.  The kept-simple originals survive as ``_reference_keystream``
/ ``_reference_xex_encrypt``; the differential suite
(``tests/hw/test_fastpath_equivalence.py``) pins the two bit-for-bit.

The caches are *simulator* state, not architectural state: they are
keyed by the key bytes themselves and therefore hold key-derived
secret material.  ``forget_key`` drops every entry derived from a key
and is called by the memory controller on key install/uninstall, so a
rotated ASID can never be served (or retain) keystream of a retired
key.  None of this affects cycle accounting — cycles are charged per
architectural event by the hardware models, never per Python operation.
"""

import hashlib
import hmac as _hmac
from collections import OrderedDict

from repro.common.constants import CACHE_LINE, KEY_BYTES, MEASUREMENT_BYTES

_DIGEST_BYTES = 32
#: counter blocks that make up one cached keystream line
_LINE_BLOCKS = CACHE_LINE // _DIGEST_BYTES

# RFC 3526 group 5 (1536-bit MODP); generator 2.
DH_PRIME = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1"
    "29024E088A67CC74020BBEA63B139B22514A08798E3404DD"
    "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245"
    "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D"
    "C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F"
    "83655D23DCA3AD961C62F356208552BB9ED529077096966D"
    "670C354E4ABC9804F1746C08CA237327FFFFFFFFFFFFFFFF",
    16,
)
DH_GENERATOR = 2


# -- keystream caches (simulator state; secret-bearing, see module doc) ------

_LINE_CACHE_MAX = 8192
_SPAN_CACHE_MAX = 512

#: (key, tweak) -> keystream bytes for counter blocks [0, _LINE_BLOCKS)
_line_cache = OrderedDict()
#: (key, first_line_pa, nlines) -> keystream of the whole contiguous
#: line run as one wide little-endian integer (the batched-read XOR
#: operand; see :func:`span_keystream_int`)
_span_cache = OrderedDict()

# plain module ints, not a dict: the hit counter rides the hot path
_line_hits = 0
_line_misses = 0
_span_hits = 0
_span_misses = 0
_key_invalidations = 0

#: the counter keys of :func:`keystream_cache_stats` (the sizes —
#: ``*_entries`` — are gauges, not counters, and stay absolute in
#: :func:`keystream_cache_delta`)
_STAT_COUNTER_KEYS = (
    "line_hits", "line_misses", "span_hits", "span_misses",
    "key_invalidations",
)


def keystream_cache_stats():
    """Counters and sizes of the keystream caches (``Cloud.perf_stats``
    and the runner's per-unit deltas read these)."""
    return {
        "line_hits": _line_hits,
        "line_misses": _line_misses,
        "span_hits": _span_hits,
        "span_misses": _span_misses,
        "key_invalidations": _key_invalidations,
        "line_entries": len(_line_cache),
        "span_entries": len(_span_cache),
    }


def keystream_cache_delta(before):
    """Stats accumulated since ``before`` (a :func:`keystream_cache_stats`
    snapshot).

    Benchmarks and persistent-pool shards must report *their own* cache
    traffic, not whatever the process accumulated before them — and they
    must not ``clear_keystream_cache`` to get that scoping, because a
    clear empties the caches a long-lived worker is keeping warm.
    Counters come back as deltas; the ``*_entries`` sizes are gauges and
    stay absolute.  A counter that went *backwards* means someone
    cleared the cache inside the window (benchmarks scope themselves
    that way); the count since that reset — the absolute value — is
    the best available answer, and keeps deltas non-negative.
    """
    after = keystream_cache_stats()
    out = dict(after)
    for key in _STAT_COUNTER_KEYS:
        prior = before.get(key, 0)
        out[key] = after[key] - prior if after[key] >= prior else after[key]
    return out


def clear_keystream_cache():
    """Drop every cached keystream line and span (tests/benchmarks).

    Also zeroes the hit/miss counters, so every stats read is scoped
    "since the last clear" — a benchmark that clears at its start then
    reports identical counters whether it ran in the main process or in
    a :mod:`repro.runner` worker shard.
    """
    global _line_hits, _line_misses, _span_hits, _span_misses
    global _key_invalidations
    _line_cache.clear()
    _span_cache.clear()
    _line_hits = _line_misses = 0
    _span_hits = _span_misses = 0
    _key_invalidations = 0


def forget_key(key):
    """Purge all cached material derived from ``key``.

    Key rotation hygiene: once a key leaves a controller slot, no
    keystream derived from it may survive in simulator caches.
    """
    global _key_invalidations
    key = bytes(key)
    for cache in (_line_cache, _span_cache):
        stale = [entry for entry in cache if entry[0] == key]
        for entry in stale:
            del cache[entry]
    _key_invalidations += 1


def _blocks(key, tweak, first_block, last_block):
    """Concatenated counter blocks [first_block, last_block]."""
    mid = hashlib.sha256()
    mid.update(key)
    mid.update(b"|")
    mid.update(tweak)
    mid.update(b"|")
    out = bytearray()
    for block in range(first_block, last_block + 1):
        h = mid.copy()
        h.update(block.to_bytes(8, "little"))
        out += h.digest()
    return out


def line_keystream_int(key, line_pa):
    """Keystream of the cache line at ``line_pa`` under ``key``, as one
    little-endian integer: the wide-XOR operand of the fast data path.

    LRU-cached per ``(key, line_pa)`` — the position tweak *is* the
    line's physical address, so repeated touches of the same encrypted
    line cost one dict hit instead of two SHA-256 compressions.  The
    integer form lets the memory controller encrypt or decrypt a whole
    line (or any byte range of it, by shift and mask) with a single
    ``^``.
    """
    global _line_hits, _line_misses
    entry = (key, line_pa)
    ks = _line_cache.get(entry)
    if ks is not None:
        _line_hits += 1
        _line_cache.move_to_end(entry)
        return ks
    _line_misses += 1
    tweak = line_pa.to_bytes(8, "little")
    ks = int.from_bytes(
        bytes(_blocks(key, tweak, 0, _LINE_BLOCKS - 1)), "little")
    _line_cache[entry] = ks
    if len(_line_cache) > _LINE_CACHE_MAX:
        _line_cache.popitem(last=False)
    return ks


def span_keystream_int(key, line_pa, nlines):
    """Keystream of ``nlines`` *contiguous* cache lines starting at
    ``line_pa``, as one wide little-endian integer.

    By construction this equals the per-line keystreams of
    :func:`line_keystream_int` concatenated in address order (line ``i``
    occupies bytes ``[i*CACHE_LINE, (i+1)*CACHE_LINE)`` of the little-
    endian word), so a batched decrypt ``raw ^ span_ks`` is bit-identical
    to decrypting line by line.  LRU-cached per ``(key, line_pa,
    nlines)`` — guest working sets re-read the same page-sized spans
    every round, so after the first touch a whole multi-line run costs
    one dict hit and one wide XOR.  Assembly on a miss goes through
    :func:`line_keystream_int`, which also warms the per-line cache the
    partial-line and write paths use.
    """
    global _span_hits, _span_misses
    entry = (key, line_pa, nlines)
    ks = _span_cache.get(entry)
    if ks is not None:
        _span_hits += 1
        _span_cache.move_to_end(entry)
        return ks
    _span_misses += 1
    parts = []
    pa = line_pa
    for _ in range(nlines):
        parts.append(
            line_keystream_int(key, pa).to_bytes(CACHE_LINE, "little"))
        pa += CACHE_LINE
    ks = int.from_bytes(b"".join(parts), "little")
    _span_cache[entry] = ks
    if len(_span_cache) > _SPAN_CACHE_MAX:
        _span_cache.popitem(last=False)
    return ks


def keystream(key, tweak, length, offset=0):
    """Deterministic keystream bytes for (key, tweak), starting at offset."""
    if length <= 0:
        return b""
    first_block = offset // _DIGEST_BYTES
    last_block = (offset + length - 1) // _DIGEST_BYTES
    out = _blocks(key, tweak, first_block, last_block)
    skip = offset - first_block * _DIGEST_BYTES
    return bytes(out[skip:skip + length])


def xex_line_encrypt(key, line_pa, data, offset=0):
    """XEX of ``data`` confined to the cache line at ``line_pa``.

    The fast-path spelling of ``xex_encrypt(key, line_pa tweak, data,
    offset)``: one cached-keystream lookup, one wide XOR.  Bit-identical
    to the reference construction; an involution like ``xex_encrypt``.
    Requires ``offset + len(data) <= CACHE_LINE``.
    """
    global _line_hits
    length = len(data)
    # the cache-hit path of line_keystream_int, inlined: one call fewer
    # on the per-line hot loop of the memory controller
    entry = (key, line_pa)
    ks = _line_cache.get(entry)
    if ks is None:
        ks = line_keystream_int(key, line_pa)
    else:
        _line_hits += 1
        _line_cache.move_to_end(entry)
    if length != CACHE_LINE:
        ks = (ks >> (offset * 8)) & ((1 << (length * 8)) - 1)
    word = int.from_bytes(data, "little") ^ ks
    return word.to_bytes(length, "little")


xex_line_decrypt = xex_line_encrypt


def xex_encrypt(key, tweak, data, offset=0):
    """Encrypt (or decrypt: the operation is an involution) ``data``.

    ``offset`` is the byte position of ``data`` within the tweaked unit,
    which makes the cipher byte-addressable: partial writes to an
    encrypted cache line need no read-modify-write in the model.
    """
    length = len(data)
    if length == 0:
        return b""
    ks = keystream(key, tweak, length, offset)
    word = int.from_bytes(data, "little") ^ int.from_bytes(ks, "little")
    return word.to_bytes(length, "little")


xex_decrypt = xex_encrypt


# -- kept-simple reference path (the equivalence oracle) ----------------------

def _reference_keystream(key, tweak, length, offset=0):
    """The original block-at-a-time keystream, kept verbatim as the
    differential-test oracle for the optimized :func:`keystream`."""
    out = bytearray()
    first_block = offset // _DIGEST_BYTES
    last_block = (offset + length - 1) // _DIGEST_BYTES
    for block in range(first_block, last_block + 1):
        h = hashlib.sha256()
        h.update(key)
        h.update(b"|")
        h.update(tweak)
        h.update(b"|")
        h.update(block.to_bytes(8, "little"))
        out.extend(h.digest())
    skip = offset - first_block * _DIGEST_BYTES
    return bytes(out[skip:skip + length])


def _reference_xex_encrypt(key, tweak, data, offset=0):
    """The original byte-at-a-time XOR, the oracle for :func:`xex_encrypt`."""
    ks = _reference_keystream(key, tweak, len(data), offset)
    return bytes(a ^ b for a, b in zip(data, ks))


_reference_xex_decrypt = _reference_xex_encrypt


def hmac_measure(key, data):
    """Integrity measurement (the paper's ``M_vm``), HMAC-SHA256."""
    return _hmac.new(key, data, hashlib.sha256).digest()[:MEASUREMENT_BYTES]


class ChainDigest:
    """An incrementally extendable SHA-256 chain with plain-bytes state.

    ``extend(chunk)`` advances ``state = SHA256(state || chunk)``.  Both
    sides of a stream compute the same chain, so it serves the same
    integrity role as a running ``hashlib`` object — but its entire
    state is 32 plain bytes, so an SEV context frozen mid-SEND/RECEIVE
    (the s-dom/r-dom helper domains live permanently in those states)
    stays picklable and comparable.
    """

    EMPTY = bytes(32)

    def __init__(self, state=None):
        self._state = self.EMPTY if state is None else bytes(state)

    def extend(self, chunk):
        h = hashlib.sha256()
        h.update(self._state)
        h.update(chunk)
        self._state = h.digest()

    def digest(self):
        return self._state


def constant_time_equal(a, b):
    return _hmac.compare_digest(a, b)


def derive_key(secret, label):
    """Derive a 16-byte subkey from a secret for the given label."""
    h = hashlib.sha256()
    h.update(secret)
    h.update(b"|derive|")
    h.update(label if isinstance(label, bytes) else label.encode())
    return h.digest()[:KEY_BYTES]


class DiffieHellman:
    """One party of a DH key agreement (guest owner or SEV firmware)."""

    def __init__(self, rng):
        self._private = rng.randrange(2, DH_PRIME - 2)
        self.public = pow(DH_GENERATOR, self._private, DH_PRIME)

    def shared_secret(self, peer_public, nonce):
        """The master secret ``S_m``: DH(shared) mixed with the guest nonce.

        Only the two parties holding a private key can compute it; the
        hypervisor relaying ``peer_public`` and ``nonce`` in the middle
        cannot (Section 4.3.2).
        """
        if not 2 <= peer_public <= DH_PRIME - 2:
            raise ValueError("invalid DH public value")
        z = pow(peer_public, self._private, DH_PRIME)
        h = hashlib.sha256()
        h.update(z.to_bytes((DH_PRIME.bit_length() + 7) // 8, "big"))
        h.update(b"|master|")
        h.update(nonce)
        return h.digest()


def wrap_key(kek, key):
    """Wrap ``key`` under ``kek``; returns (ciphertext, tag)."""
    ct = xex_encrypt(kek, b"key-wrap", key)
    tag = hmac_measure(kek, b"key-wrap-tag" + ct)
    return ct, tag


def unwrap_key(kek, wrapped):
    """Unwrap a (ciphertext, tag) pair; raises ValueError on a bad tag."""
    ct, tag = wrapped
    expect = hmac_measure(kek, b"key-wrap-tag" + ct)
    if not constant_time_equal(tag, expect):
        raise ValueError("key unwrap failed: integrity tag mismatch")
    return xex_decrypt(kek, b"key-wrap", ct)


def random_key(rng):
    """A fresh 16-byte key drawn from the supplied ``random.Random``.

    Drawn as one ``getrandbits(128)`` word instead of sixteen 8-bit
    draws.  This consumes the underlying Mersenne-Twister stream
    differently, so keys (and everything downstream of them) differ
    from pre-PR-4 runs for the same seed — the seed bump is documented
    in ``docs/performance.md``; no committed fixture pins the old bytes.
    """
    return rng.getrandbits(8 * KEY_BYTES).to_bytes(KEY_BYTES, "little")
