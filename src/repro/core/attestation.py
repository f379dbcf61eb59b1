"""Remote attestation of the Fidelius host (paper Section 4.3.1).

"Xen remains booting up itself as usual until it boots Fidelius and
leverages existing hardware support to issue a measurement on its
integrity, which can be used in remote attestation to verify its
validity.  During the booting process of Fidelius, it measures the
integrity of the hypervisor's code."

We model the hardware root of trust (a TPM/PSP-style quote key) inside
the SEV firmware's machine: the quote binds the Fidelius text
measurement, the hypervisor text measurement and a verifier-chosen
nonce under a key the host software never sees.  A guest owner checks
the quote against known-good ("golden") measurements before handing
over an encrypted image.
"""

import hashlib
from dataclasses import dataclass

from repro.common import crypto
from repro.common.errors import ReproError
from repro.core.binscan import measure_text


@dataclass(frozen=True)
class Quote:
    """One attestation quote."""

    fidelius_measurement: bytes
    xen_measurement: bytes
    nonce: bytes
    signature: bytes


class AttestationAuthority:
    """The hardware quote engine of one machine.

    The quote key is generated inside the "secure processor" (derived
    from the machine RNG at construction) and is only ever used to MAC
    quotes; ``public_verifier`` hands a verification oracle to remote
    parties, standing in for certificate-chain verification.
    """

    def __init__(self, machine):
        self._machine = machine
        self._quote_key = crypto.random_key(machine.rng)

    def quote(self, fidelius, nonce):
        """Measure the running system and sign the result."""
        fid_measurement = measure_text(self._machine, fidelius.text_image)
        xen_measurement = measure_text(self._machine,
                                       fidelius.hypervisor.text)
        signature = self._sign(fid_measurement, xen_measurement, nonce)
        return Quote(fid_measurement, xen_measurement, nonce, signature)

    def _sign(self, fid_measurement, xen_measurement, nonce):
        h = hashlib.sha256()
        h.update(fid_measurement)
        h.update(xen_measurement)
        h.update(nonce)
        return crypto.hmac_measure(self._quote_key, h.digest())

    def public_verifier(self):
        """The remote party's verification oracle for this machine."""
        return QuoteVerifier(self)


class QuoteVerifier:
    """Signature-verification oracle for one authority's quotes.

    A plain class rather than a closure so a :class:`RemoteVerifier`
    holding it stays picklable.  It never exposes the quote key: the
    oracle recomputes the MAC inside the authority and compares.
    """

    def __init__(self, authority):
        self._authority = authority

    def __call__(self, quote):
        expected = self._authority._sign(
            quote.fidelius_measurement, quote.xen_measurement, quote.nonce)
        return crypto.constant_time_equal(expected, quote.signature)


class RemoteVerifier:
    """The guest owner's side: golden values + freshness."""

    def __init__(self, golden_fidelius, golden_xen, verify_signature):
        self.golden_fidelius = golden_fidelius
        self.golden_xen = golden_xen
        self._verify_signature = verify_signature
        self._used_nonces = set()

    def fresh_nonce(self, rng):
        nonce = bytes(rng.getrandbits(8) for _ in range(16))
        return nonce

    def explain(self, quote, nonce):
        """Why the quote is unacceptable, or None if it verifies.

        A fresh nonce is consumed exactly when it passes the replay
        checks, so a rejected quote still burns its nonce — replaying
        the same challenge later can never succeed.
        """
        if quote.nonce != nonce:
            return "attestation: stale or replayed quote"
        if nonce in self._used_nonces:
            return "attestation: nonce reuse"
        self._used_nonces.add(nonce)
        if not self._verify_signature(quote):
            return "attestation: bad quote signature"
        if quote.fidelius_measurement != self.golden_fidelius:
            return ("attestation: Fidelius text does not match "
                    "the golden measurement")
        if quote.xen_measurement != self.golden_xen:
            return ("attestation: hypervisor text does not match "
                    "the golden measurement")
        return None

    def check(self, quote, nonce):
        """Raises :class:`ReproError` unless the quote is acceptable."""
        reason = self.explain(quote, nonce)
        if reason is not None:
            raise ReproError(reason)
        return True


def golden_measurements(system):
    """The reference measurements of a known-good install.

    In deployment these come from the distributor of the Fidelius and
    Xen builds; here we take them from a pristine host of the same
    build, which is how the test suite models the supply chain.
    """
    fid = system.fidelius
    return (measure_text(system.machine, fid.text_image),
            measure_text(system.machine, fid.hypervisor.text))
