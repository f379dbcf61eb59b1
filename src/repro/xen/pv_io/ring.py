"""The shared request/response ring between front and back ends.

Requests are batched: the front end pushes several and kicks the event
channel once — the behaviour behind the paper's observation that PV I/O
"can outperform the emulated I/O interface as the transferred data are
batched" (Section 2.3), and behind Table 3's write-batching asymmetry.
"""

from collections import deque
from dataclasses import dataclass

from repro.common.errors import XenError


@dataclass
class BlkRequest:
    """One block request referencing the persistent shared buffer."""

    op: str                 # "read" or "write"
    sector: int
    count: int              # sectors
    buffer_offset: int      # byte offset into the shared buffer area
    request_id: int = 0

    def __post_init__(self):
        if self.op not in ("read", "write"):
            raise XenError("bad block op %r" % (self.op,))


@dataclass
class BlkResponse:
    request_id: int
    status: int             # 0 = OK


class BlkRing:
    """A bounded ring of requests and responses."""

    def __init__(self, capacity=32):
        self.capacity = capacity
        self._requests = deque()
        self._responses = deque()
        self._next_id = 1

    def push_request(self, request):
        if len(self._requests) >= self.capacity:
            raise XenError("ring full")
        request.request_id = self._next_id
        self._next_id += 1
        self._requests.append(request)
        return request.request_id

    def pop_request(self):
        if not self._requests:
            return None
        return self._requests.popleft()

    def push_response(self, response):
        self._responses.append(response)

    def pop_response(self):
        if not self._responses:
            raise XenError("no response on ring")
        return self._responses.popleft()
