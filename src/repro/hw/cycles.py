"""Cycle accounting.

Every simulated hardware and Fidelius operation charges cycles to one
shared counter, attributed to a reason string.  The micro benchmarks of
Section 7.2 read these attributions directly; the macro model sums them.
"""

from collections import defaultdict


class CycleCounter:
    """A monotonically increasing cycle counter with per-reason buckets."""

    def __init__(self):
        self.total = 0
        self.by_reason = defaultdict(int)
        self.events = defaultdict(int)

    # fidelint: ignore[FID004] -- the cycle model itself
    def charge(self, cycles, reason="unattributed"):
        if cycles < 0:
            raise ValueError("cannot charge negative cycles")
        self.total += cycles
        self.by_reason[reason] += cycles
        self.events[reason] += 1

    # fidelint: ignore[FID004] -- the cycle model itself
    def charge_many(self, cycles, reason, count):
        """``count`` identical charges in one call.

        The ledger is order-free (sums and event tallies, no sequence),
        so this is *defined* to leave ``total``/``by_reason``/``events``
        exactly as ``count`` individual :meth:`charge` calls would —
        the identity the batched memory-controller paths rely on to
        stay cycle-equal with the per-access reference loop.
        """
        if cycles < 0:
            raise ValueError("cannot charge negative cycles")
        if count < 0:
            raise ValueError("cannot charge a negative event count")
        if count == 0:
            return
        self.total += cycles * count
        self.by_reason[reason] += cycles * count
        self.events[reason] += count

    def snapshot(self):
        """An immutable view usable for before/after deltas."""
        return CycleSnapshot(self.total, dict(self.by_reason), dict(self.events))

    def since(self, snapshot):
        """Cycles elapsed since ``snapshot`` was taken."""
        return self.total - snapshot.total

    # fidelint: ignore[FID004] -- test/benchmark harness control
    def reset(self):
        self.total = 0
        self.by_reason.clear()
        self.events.clear()


class CycleSnapshot:
    """Frozen copy of a :class:`CycleCounter` at one point in time."""

    def __init__(self, total, by_reason, events):
        self.total = total
        self.by_reason = by_reason
        self.events = events

    def delta(self, counter):
        """Per-reason cycles accumulated on ``counter`` since this snapshot."""
        out = {}
        for reason, cycles in counter.by_reason.items():
            diff = cycles - self.by_reason.get(reason, 0)
            if diff:
                out[reason] = diff
        return out

    def event_delta(self, counter):
        out = {}
        for reason, count in counter.events.items():
            diff = count - self.events.get(reason, 0)
            if diff:
                out[reason] = diff
        return out
