"""The discrete-event engine: ordering, tie-breaks, pickling.

Everything the fleet model builds on reduces to the ``EventQueue``
contract tested here: a total, seed-deterministic order over virtual
time, a clock that never runs backwards, and a queue that pickles to an
identically-behaving twin (a pickled ``FleetModel`` carries its queue).
"""

import pickle

import pytest

from repro.fleet.events import Event, EventQueue, FleetError


def _drain(queue):
    out = []
    while True:
        item = queue.pop()
        if item is None:
            return out
        out.append(item)


class TestEvent:
    def test_data_is_canonically_sorted(self):
        assert Event.of("launch", name="g", frames=4).data == \
            (("frames", 4), ("name", "g"))

    def test_get_and_asdict(self):
        event = Event.of("migrate", name="g1", target=2)
        assert event.get("target") == 2
        assert event.get("missing", 7) == 7
        assert event.asdict() == {"name": "g1", "target": 2}

    def test_events_are_hashable_pure_data(self):
        assert Event.of("a", x=1) == Event.of("a", x=1)
        assert len({Event.of("a", x=1), Event.of("a", x=1)}) == 1


class TestOrdering:
    def test_time_order(self):
        queue = EventQueue(seed=1)
        queue.schedule(300, Event.of("c"))
        queue.schedule(100, Event.of("a"))
        queue.schedule(200, Event.of("b"))
        assert [e.kind for _t, e in _drain(queue)] == ["a", "b", "c"]

    def test_priority_beats_sequence_at_same_instant(self):
        queue = EventQueue(seed=1)
        queue.schedule(50, Event.of("late"))
        queue.schedule(50, Event.of("urgent"), priority=-1)
        assert _drain(queue)[0][1].kind == "urgent"

    def test_clock_advances_to_popped_time(self):
        queue = EventQueue(seed=0)
        queue.schedule(10, Event.of("a"))
        queue.schedule(25, Event.of("b"))
        assert queue.now == 0
        queue.pop()
        assert queue.now == 10
        queue.pop()
        assert queue.now == 25

    def test_delays_are_relative_to_now(self):
        queue = EventQueue(seed=0)
        queue.schedule(10, Event.of("a"))
        queue.pop()
        queue.schedule(5, Event.of("b"))
        assert queue.pop() == (15, Event.of("b"))

    def test_scheduling_into_the_past_is_refused(self):
        queue = EventQueue(seed=0)
        with pytest.raises(FleetError):
            queue.schedule(-1, Event.of("x"))

    def test_non_integer_delays_are_refused(self):
        # the clock is an exact integer: a float would move it off the
        # integers, and True would pass as a delay of 1
        queue = EventQueue(seed=0)
        for bad in (1.5, True, False, "1", None):
            with pytest.raises(FleetError, match="delay of"):
                queue.schedule(bad, Event.of("x"))
        assert len(queue) == 0 and queue.pop() is None
        assert queue.now == 0

    def test_len_tracks_pending_events(self):
        queue = EventQueue(seed=0)
        assert len(queue) == 0
        queue.schedule(30, Event.of("b"))
        queue.schedule(10, Event.of("a"))
        assert len(queue) == 2
        queue.pop()
        assert len(queue) == 1
        queue.pop()
        assert len(queue) == 0


class TestSeededTieBreak:
    def _race(self, seed, n=16):
        queue = EventQueue(seed=seed)
        for index in range(n):
            queue.schedule(1000, Event.of("e%d" % index))
        return [event.kind for _t, event in _drain(queue)]

    def test_same_seed_reproduces_the_same_race_outcome(self):
        assert self._race(7) == self._race(7)

    def test_race_outcome_is_not_submission_order(self):
        # a same-instant burst is shuffled by the seeded tie, not FIFO
        assert self._race(7) != ["e%d" % i for i in range(16)]

    def test_different_seeds_race_differently(self):
        assert self._race(7) != self._race(8)


class TestPickleRoundTrip:
    def test_restored_queue_replays_identically(self):
        def build():
            queue = EventQueue(seed=0xF1EE7)
            for index in range(24):
                queue.schedule(index % 5 * 100, Event.of("e%d" % index))
            for _ in range(6):
                queue.pop()    # part-way through, clock advanced
            return queue

        original = build()
        restored = pickle.loads(pickle.dumps(build()))
        assert restored.now == original.now
        assert len(restored) == len(original)
        assert _drain(restored) == _drain(original)
        assert restored.now == original.now

    def test_scheduling_after_restore_stays_in_lockstep(self):
        queue = EventQueue(seed=3)
        queue.schedule(10, Event.of("a"))
        twin = pickle.loads(pickle.dumps(queue))
        # the tie-break RNG stream must survive the round trip too
        for q in (queue, twin):
            q.schedule(50, Event.of("x"))
            q.schedule(50, Event.of("y"))
            q.schedule(50, Event.of("z"))
        assert _drain(queue) == _drain(twin)
