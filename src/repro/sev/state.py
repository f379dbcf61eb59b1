"""SEV firmware state machines: platform and per-guest contexts."""

import enum

from repro.common.crypto import ChainDigest
from repro.common.errors import FirmwareStateError

#: Guest policy bits (the SEV launch policy): restrictions the guest
#: owner bakes in at LAUNCH_START and the firmware enforces forever.
POLICY_NODBG = 1 << 0    # no debug decryption of guest memory
POLICY_NOSEND = 1 << 1   # guest may never be sent (no migration)
POLICY_ES = 1 << 2       # guest requires SEV-ES


class PlatformState(enum.Enum):
    UNINIT = "uninit"
    INIT = "init"


class GuestState(enum.Enum):
    """Per-guest context states (mirrors the SEV firmware spec).

    The transition discipline is load-bearing for the paper: SEND_UPDATE
    and RECEIVE_UPDATE only work in SENDING / RECEIVING states, which is
    why the SEV-based I/O path needs the *s-dom* and *r-dom* helper
    contexts pinned in those states (Section 4.3.5).
    """

    UNINIT = "uninit"
    LAUNCHING = "launching"
    RUNNING = "running"
    SENDING = "sending"
    RECEIVING = "receiving"


class GuestSevContext:
    """One guest's SEV state inside the firmware, referenced by handle."""

    def __init__(self, handle, kvek, policy=0):
        self.handle = handle
        self.kvek = kvek
        self.policy = policy
        self.state = GuestState.LAUNCHING
        self.asid = None
        #: Transport keys, present only while SENDING or RECEIVING.
        self.tek = None
        self.tik = None
        # Chained digests rather than live hashlib objects: their state
        # is plain bytes, so a context that is mid-stream stays
        # picklable (see crypto.ChainDigest).
        self._digest = ChainDigest()
        #: Running transport-integrity MAC input (send/receive streams).
        self._stream = ChainDigest()

    def require_state(self, *states):
        if self.state not in states:
            raise FirmwareStateError(
                "/".join(s.value for s in states), self.state.value
            )

    # -- launch measurement -------------------------------------------------

    def extend_measurement(self, plaintext):
        self._digest.extend(plaintext)

    def measurement(self):
        return self._digest.digest()

    # -- transport stream integrity ------------------------------------------

    def reset_stream(self):
        self._stream = ChainDigest()

    def extend_stream(self, transport_ct):
        self._stream.extend(transport_ct)

    def stream_digest(self):
        return self._stream.digest()
