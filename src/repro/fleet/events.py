"""The discrete-event engine: virtual clock, seeded tie-break.

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
collide).  ``seq`` breaks the astronomically unlikely residual tie.

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

    ``pop`` advances :attr:`now` to the popped event's time; time never
    runs backwards and scheduling into the past is refused.
    """

    def __init__(self, seed=0):
        self.now = 0
        self._heap = []
        self._seq = 0
        self._rng = random.Random(seed)
        self.scheduled = 0
        self.processed = 0

    def __len__(self):
        return len(self._heap)

    @property
    def empty(self):
        return len(self) == 0

    def schedule(self, delay_ns, event, priority=0):
        """Enqueue ``event`` ``delay_ns`` virtual nanoseconds from now."""
        if delay_ns < 0:
            raise FleetError("cannot schedule %r %d ns into the past"
                             % (event.kind, delay_ns))
        seq = self._seq
        self._seq += 1
        tie = self._rng.getrandbits(_TIE_BITS)
        heapq.heappush(self._heap,
                       (self.now + delay_ns, priority, tie, seq, event))
        self.scheduled += 1

    def peek_time(self):
        """The virtual time of the next event, or None."""
        return self._heap[0][0] if self._heap else None

    def pop(self):
        """``(time_ns, event)`` for the next event, advancing the clock;
        None when the queue is drained."""
        if not self._heap:
            return None
        time_ns, _priority, _tie, _seq, event = heapq.heappop(self._heap)
        self.now = time_ns
        self.processed += 1
        return time_ns, event
