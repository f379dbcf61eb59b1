"""The discrete-event engine: virtual clock, seeded tie-break, timers.

One :class:`EventQueue` is the entire notion of time for a fleet model.
Virtual time is an integer count of *nanoseconds of modelled work* —
integers so that clock arithmetic is exact, digests are byte-stable
across platforms, and a pickled queue restores to the identical state.

Ordering is a total order and therefore deterministic:

    (time, priority, tie, seq)

``tie`` is drawn from the queue's own seeded RNG at *schedule* time, so
two events scheduled for the same instant at the same priority race in
a seed-reproducible shuffle rather than in submission order — the
population-level analogue of the chaos soak's seeded fault schedules
(migration storms are interesting precisely because their arrivals
collide).  ``seq`` breaks the astronomically unlikely residual tie and
doubles as the cancellable timer handle.

Events are pure data (:class:`Event`), never closures: the queue must
pickle byte-for-byte (a pickled :class:`~repro.fleet.model.FleetModel`
carries its queue), and a model dispatches on ``Event.kind`` instead of
calling back into captured state.
"""

import heapq
import random
from dataclasses import dataclass

from repro.cloud.policies import FleetError

#: tie-break entropy width; 32 bits keeps tuples small and hashable
_TIE_BITS = 32


@dataclass(frozen=True)
class Event:
    """One unit of scheduled work, as pure picklable data.

    ``data`` is stored as a sorted tuple of ``(key, value)`` pairs so
    events hash, pickle byte-stably, and render canonically in digests.
    """

    kind: str
    data: tuple = ()

    @classmethod
    def of(cls, kind, **data):
        return cls(kind, tuple(sorted(data.items())))

    def get(self, key, default=None):
        for name, value in self.data:
            if name == key:
                return value
        return default

    def asdict(self):
        return dict(self.data)


class EventQueue:
    """A deterministic priority queue over virtual time.

    ``schedule`` returns the event's sequence number — the handle
    ``cancel`` takes.  Cancellation is lazy (a tombstone set consulted
    at pop time), so it does not disturb the heap, but ``cancel`` first
    scans the whole heap for its handle: O(n) per call, which no
    scenario pays because none cancels a timer.  ``pop``
    advances :attr:`now` to the popped event's time; time never runs
    backwards and scheduling into the past is refused.
    """

    def __init__(self, seed=0):
        self.now = 0
        self._heap = []
        self._seq = 0
        self._cancelled = set()
        self._rng = random.Random(seed)
        self.scheduled = 0
        self.processed = 0
        self.cancelled = 0

    def __len__(self):
        return len(self._heap) - len(self._cancelled)

    @property
    def empty(self):
        return len(self) == 0

    def schedule(self, delay_ns, event, priority=0):
        """Enqueue ``event`` ``delay_ns`` virtual nanoseconds from now;
        returns the timer handle."""
        if delay_ns < 0:
            raise FleetError("cannot schedule %r %d ns into the past"
                             % (event.kind, delay_ns))
        handle = self._seq
        self._seq += 1
        tie = self._rng.getrandbits(_TIE_BITS)
        heapq.heappush(self._heap,
                       (self.now + delay_ns, priority, tie, handle, event))
        self.scheduled += 1
        return handle

    def cancel(self, handle):
        """Cancel a pending timer; True if it was still pending."""
        if handle >= self._seq or handle in self._cancelled:
            return False
        if not any(entry[3] == handle for entry in self._heap):
            return False
        self._cancelled.add(handle)
        self.cancelled += 1
        return True

    def peek_time(self):
        """The virtual time of the next live event, or None."""
        self._drop_tombstones()
        return self._heap[0][0] if self._heap else None

    def pop(self):
        """``(time_ns, event)`` for the next live event, advancing the
        clock; None when the queue is drained."""
        while self._heap:
            time_ns, _priority, _tie, handle, event = \
                heapq.heappop(self._heap)
            if handle in self._cancelled:
                self._cancelled.discard(handle)
                continue
            self.now = time_ns
            self.processed += 1
            return time_ns, event
        return None

    def _drop_tombstones(self):
        while self._heap and self._heap[0][3] in self._cancelled:
            self._cancelled.discard(heapq.heappop(self._heap)[3])
