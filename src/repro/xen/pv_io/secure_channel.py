"""An SSL-style secure channel over the PV network path.

The paper's treatment of network I/O is one assumption: "network I/O
data has been protected by the SSL protocol" (Section 4.3.5).  This
module makes the assumption concrete so the security evaluation can
check it: a pinned-key handshake plus sequence-numbered, authenticated,
encrypted records between the guest application and a remote server —
relayed verbatim by the untrusted driver domain.

Protocol (TLS in miniature):

1. the server's static DH public value is *pinned* in the guest (it
   ships inside the encrypted kernel image, like a CA bundle), so a
   man-in-the-middle hypervisor cannot substitute its own key;
2. the client sends an ephemeral DH public value and a nonce;
3. both sides derive direction keys from the shared secret;
4. records are ``seq || ciphertext || tag``; the sequence number is
   the cipher tweak and is covered by the MAC, so replayed, reordered
   or tampered records are rejected.
"""

from dataclasses import dataclass

from repro.common import crypto
from repro.common.errors import ReproError

_SEQ_BYTES = 8
_TAG_BYTES = 32


class ChannelError(ReproError):
    """Handshake or record verification failed."""


def _derive_keys(shared, nonce):
    return (crypto.derive_key(shared + nonce, "c2s"),
            crypto.derive_key(shared + nonce, "s2c"))


class _RecordLayer:
    """One direction pair of record codecs with replay protection."""

    def __init__(self, send_key, recv_key):
        self._send_key = send_key
        self._recv_key = recv_key
        self._send_seq = 0
        self._recv_seq = 0

    def seal(self, plaintext):
        seq = self._send_seq.to_bytes(_SEQ_BYTES, "little")
        ciphertext = crypto.xex_encrypt(self._send_key, b"rec|" + seq,
                                        plaintext)
        tag = crypto.hmac_measure(self._send_key, seq + ciphertext)
        self._send_seq += 1
        return seq + ciphertext + tag

    def open(self, record):
        if len(record) < _SEQ_BYTES + _TAG_BYTES:
            raise ChannelError("record truncated")
        seq = record[:_SEQ_BYTES]
        ciphertext = record[_SEQ_BYTES:-_TAG_BYTES]
        tag = record[-_TAG_BYTES:]
        expect = crypto.hmac_measure(self._recv_key, seq + ciphertext)
        if not crypto.constant_time_equal(tag, expect):
            raise ChannelError("record authentication failed")
        if int.from_bytes(seq, "little") != self._recv_seq:
            raise ChannelError("record replayed or reordered")
        self._recv_seq += 1
        return crypto.xex_decrypt(self._recv_key, b"rec|" + seq, ciphertext)


@dataclass
class ClientHello:
    ephemeral_public: int
    nonce: bytes


class SecureServer:
    """The remote endpoint, living past the virtual wire."""

    def __init__(self, rng):
        self._dh = crypto.DiffieHellman(rng)
        self.received = []
        self._layer = None

    @property
    def pinned_public(self):
        """What the guest owner bakes into the kernel image."""
        return self._dh.public

    def accept(self, hello):
        shared = self._dh.shared_secret(hello.ephemeral_public, hello.nonce)
        c2s, s2c = _derive_keys(shared, hello.nonce)
        self._layer = _RecordLayer(send_key=s2c, recv_key=c2s)

    def handle_record(self, record):
        """Decrypt a request, remember it, answer with an echo."""
        plaintext = self._layer.open(record)
        self.received.append(plaintext)
        return self._layer.seal(b"ack:" + plaintext)


class SecureClient:
    """The in-guest endpoint, speaking through a NetFrontend."""

    def __init__(self, frontend, pinned_server_public, rng):
        self._frontend = frontend
        self._pinned = pinned_server_public
        self._rng = rng
        self._layer = None

    def handshake(self, server):
        """Key exchange; ``server`` is reached over the (relayed) wire.

        The hello travels through the same untrusted path as data —
        that is fine, it contains only public values.  The *server key*
        does not travel at all: it is pinned.
        """
        if server.pinned_public != self._pinned:
            raise ChannelError("server key does not match the pinned key "
                               "(man in the middle)")
        ephemeral = crypto.DiffieHellman(self._rng)
        nonce = bytes(self._rng.getrandbits(8) for _ in range(16))
        shared = ephemeral.shared_secret(self._pinned, nonce)
        c2s, s2c = _derive_keys(shared, nonce)
        self._layer = _RecordLayer(send_key=c2s, recv_key=s2c)
        server.accept(ClientHello(ephemeral.public, nonce))

    def request(self, payload, server):
        """One round trip: seal, transmit, let the wire deliver, read
        the sealed response back."""
        if self._layer is None:
            raise ChannelError("handshake first")
        self._frontend.send(self._layer.seal(payload))
        frame = self._frontend.backend.wire.pop_for_remote()
        if frame is None:
            raise ChannelError("frame lost on the wire")
        response = server.handle_record(frame.payload)
        self._frontend.backend.wire.deliver_to_guest(response)
        sealed = self._frontend.receive()
        return self._layer.open(sealed)
