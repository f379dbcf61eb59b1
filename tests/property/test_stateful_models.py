"""Stateful property-based tests: core data structures against simple
reference models under arbitrary operation sequences."""

from hypothesis import settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.common.types import Owner, PageUsage
from repro.core.pit import FREE_ENTRY, PageInfoTable
from repro.hw.cycles import CycleCounter
from repro.hw.memctrl import MemoryController
from repro.hw.memory import FrameAllocator, PhysicalMemory
from repro.workloads.tracegen import CacheModel


class PitAgainstDict(RuleBasedStateMachine):
    """The three-level radix PIT must behave like a plain dict."""

    def __init__(self):
        super().__init__()
        machine_mem = PhysicalMemory(512)
        alloc = FrameAllocator(512)

        class _M:
            memory = machine_mem
        self.pit = PageInfoTable(_M, alloc.alloc)
        self.model = {}

    pfns = st.integers(0, 4000)

    @rule(pfn=pfns,
          owner=st.sampled_from(list(Owner)),
          usage=st.sampled_from(list(PageUsage)),
          tag=st.integers(0, 0xFFFF))
    def classify(self, pfn, owner, usage, tag):
        entry = self.pit.classify(pfn, owner, usage, tag)
        self.model[pfn] = entry

    @rule(pfn=pfns)
    def invalidate(self, pfn):
        self.pit.invalidate(pfn)
        self.model.pop(pfn, None)

    @rule(pfn=pfns)
    def lookup_matches_model(self, pfn):
        expected = self.model.get(pfn, FREE_ENTRY)
        assert self.pit.lookup(pfn) == expected

    @invariant()
    def table_pages_never_collide_with_entries(self):
        # the radix tree's own frames are allocator-owned and disjoint
        assert len(self.pit.table_pfns) == len(set(self.pit.table_pfns))


class AllocatorAgainstSet(RuleBasedStateMachine):
    """The frame allocator against a set model."""

    def __init__(self):
        super().__init__()
        self.alloc = FrameAllocator(64, reserved=4)
        self.live = set()

    @rule()
    def allocate(self):
        from repro.common.errors import PhysicalMemoryError
        try:
            pfn = self.alloc.alloc()
        except PhysicalMemoryError:
            assert len(self.live) == 60  # pool exhausted exactly when full
            return
        assert pfn not in self.live
        assert pfn >= 4
        self.live.add(pfn)

    @rule(data=st.data())
    def free_one(self, data):
        if not self.live:
            return
        pfn = data.draw(st.sampled_from(sorted(self.live)))
        self.alloc.free(pfn)
        self.live.remove(pfn)

    @invariant()
    def counts_agree(self):
        assert self.alloc.free_count == 60 - len(self.live)
        assert all(self.alloc.is_allocated(p) for p in self.live)


class CacheAgainstLruModel(RuleBasedStateMachine):
    """The cache model against a textbook LRU list."""

    CAPACITY = 8

    def __init__(self):
        super().__init__()
        self.cache = CacheModel(lines=self.CAPACITY)
        self.lru = []  # most recent last
        self.accesses = 0
        self.misses = 0

    def _touch(self, line):
        """The textbook LRU step; True on a miss."""
        missed = line not in self.lru
        if not missed:
            self.lru.remove(line)
        self.lru.append(line)
        if len(self.lru) > self.CAPACITY:
            self.lru.pop(0)
        self.accesses += 1
        self.misses += missed
        return missed

    @rule(line=st.integers(0, 30))
    def access(self, line):
        address = line << 6
        missed = self.cache.access(address)
        assert missed == self._touch(line)

    @rule(lines=st.lists(st.integers(0, 30), max_size=24))
    def run_lines(self, lines):
        missed = self.cache.run([line << 6 for line in lines])
        assert missed == sum(self._touch(line) for line in lines)

    @invariant()
    def occupancy_bounded(self):
        assert len(self.lru) <= self.CAPACITY

    @invariant()
    def recency_order_matches(self):
        assert list(self.cache._order) == self.lru

    @invariant()
    def counters_match(self):
        assert self.cache.misses == self.misses
        assert self.cache.hits == self.accesses - self.misses


class MemctrlReadYourWrites(RuleBasedStateMachine):
    """Arbitrary interleavings of encrypted/plain writes must always
    read back what the *same principal* last wrote to each byte."""

    def __init__(self):
        super().__init__()
        self.ctrl = MemoryController(PhysicalMemory(8), CycleCounter(),
                                     cache_lines=4)
        self.ctrl.install_key(1, b"A" * 16)
        self.ctrl.install_key(2, b"B" * 16)
        #: byte -> (value, c_bit, asid)
        self.model = {}

    addresses = st.integers(0, 8 * 4096 - 64)
    payloads = st.binary(min_size=1, max_size=64)

    @rule(pa=addresses, data=payloads,
          mode=st.sampled_from([(False, 0), (True, 1), (True, 2)]))
    def write(self, pa, data, mode):
        c_bit, asid = mode
        self.ctrl.write(pa, data, c_bit=c_bit, asid=asid)
        for i, value in enumerate(data):
            self.model[pa + i] = (value, c_bit, asid)

    @rule(pa=addresses, length=st.integers(1, 64))
    def read_matches(self, pa, length):
        # only assert bytes whose whole line has a consistent principal;
        # mixed-principal lines are garbage by design (wrong-key reads)
        for i in range(length):
            entry = self.model.get(pa + i)
            if entry is None:
                continue
            value, c_bit, asid = entry
            got = self.ctrl.read(pa + i, 1, c_bit=c_bit, asid=asid)
            line_base = (pa + i) & ~63
            same_principal = all(
                self.model.get(line_base + j, (0, c_bit, asid))[1:]
                == (c_bit, asid)
                for j in range(64)
            )
            if same_principal:
                assert got[0] == value

    @rule()
    def flush(self):
        self.ctrl.flush_cache()


def _test_case(machine):
    """The machine's TestCase under this module's settings; binding it
    inside a function leaves no extra TestCase name for pytest to
    collect."""
    case = machine.TestCase
    case.settings = settings(max_examples=25, stateful_step_count=30,
                             deadline=None)
    return case


TestPitAgainstDict = _test_case(PitAgainstDict)
TestAllocatorAgainstSet = _test_case(AllocatorAgainstSet)
TestCacheAgainstLruModel = _test_case(CacheAgainstLruModel)
TestMemctrlReadYourWrites = _test_case(MemctrlReadYourWrites)
