"""Tests for the workload models: trace generation, cache behaviour,
fio specs and the disk timing model."""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.cycles import CycleCounter
from repro.common.constants import CACHE_LINE_SHIFT
from repro.workloads import (
    CacheModel,
    DiskTimingModel,
    PARSEC_PROFILES,
    SPEC_PROFILES,
    TABLE3_SPECS,
    generate_trace,
    simulate_misses,
)
from repro.workloads.fio import DISK_SEEK_CYCLES
from repro.workloads.profiles import profile_by_name


class TestProfiles:
    def test_figure5_has_eleven_benchmarks(self):
        assert len(SPEC_PROFILES) == 11

    def test_figure6_has_thirteen_benchmarks(self):
        assert len(PARSEC_PROFILES) == 13

    def test_memory_bound_programs_stand_out(self):
        """mcf, omnetpp and canneal are the encryption-sensitive ones."""
        by_suite = sorted(SPEC_PROFILES, key=lambda p: p.mpki_dram)
        assert by_suite[-1].name == "mcf"
        assert by_suite[-2].name == "omnetpp"
        parsec = sorted(PARSEC_PROFILES, key=lambda p: p.mpki_dram)
        assert parsec[-1].name == "canneal"

    def test_lookup_by_name(self):
        assert profile_by_name("mcf").suite == "speccpu2006"
        with pytest.raises(KeyError):
            profile_by_name("doom3")


class TestCacheModel:
    def test_repeat_access_hits(self):
        cache = CacheModel(lines=8)
        assert cache.access(0x1000) is True
        assert cache.access(0x1000) is False
        assert cache.access(0x1010) is False  # same line

    def test_lru_eviction(self):
        cache = CacheModel(lines=2)
        cache.access(0x0)
        cache.access(0x40)
        cache.access(0x0)     # refresh line 0
        cache.access(0x80)    # evicts line 0x40
        assert cache.access(0x40) is True
        assert cache.access(0x0) is True  # refilling 0x40 evicted line 0

    def test_miss_ratio_property(self):
        cache = CacheModel(lines=4)
        for _ in range(10):
            cache.access(0x0)
        assert cache.miss_ratio == pytest.approx(0.1)

    @pytest.mark.parametrize("lines", [0, -3])
    def test_a_cache_without_lines_is_refused(self, lines):
        with pytest.raises(ValueError):
            CacheModel(lines=lines)
        with pytest.raises(ValueError):
            simulate_misses(profile_by_name("mcf"), 100, cache_lines=lines)


def _randrange_trace(profile, accesses, seed):
    """The trace as ``generate_trace`` first drew it, one
    ``rng.randrange(1024)`` per hot line: the reference for the explicit
    draw."""
    rng = random.Random(seed)
    miss_ratio = profile.miss_ratio
    hot_lines = 1024
    streaming_cursor = 1 << 30
    trace = []
    for _ in range(accesses):
        if rng.random() < miss_ratio:
            streaming_cursor += 1 << CACHE_LINE_SHIFT
            trace.append(streaming_cursor)
        else:
            trace.append(rng.randrange(hot_lines) << CACHE_LINE_SHIFT)
    return trace


class TestTraceGeneration:
    @pytest.mark.parametrize("name", ["mcf", "canneal", "gcc"])
    def test_measured_miss_ratio_matches_profile(self, name):
        """The honest-simulation invariant: the cache measurement must
        converge on the characterized MPKI, it is never plugged in."""
        profile = profile_by_name(name)
        misses, accesses = simulate_misses(profile, accesses=40_000)
        measured = misses / accesses
        assert measured == pytest.approx(profile.miss_ratio, rel=0.15)

    def test_trace_deterministic_per_seed(self):
        profile = profile_by_name("mcf")
        assert generate_trace(profile, 1000, seed=5) == \
            generate_trace(profile, 1000, seed=5)
        assert generate_trace(profile, 1000, seed=5) != \
            generate_trace(profile, 1000, seed=6)

    @settings(max_examples=10)
    @given(st.sampled_from([p.name for p in SPEC_PROFILES]))
    def test_property_misses_bounded_by_accesses(self, name):
        profile = profile_by_name(name)
        misses, accesses = simulate_misses(profile, accesses=5_000)
        assert 0 <= misses <= accesses

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from([p.name for p in SPEC_PROFILES
                                 + PARSEC_PROFILES]),
           miss_ratio=st.one_of(st.sampled_from([0.0, 1.0]),
                                st.floats(0.0, 1.0)),
           seed=st.integers(),
           accesses=st.integers(0, 3_000))
    def test_property_matches_the_randrange_reference(self, name,
                                                      miss_ratio, seed,
                                                      accesses):
        """The explicit getrandbits draw is the same stream as
        ``randrange``, so every figure row is unchanged."""
        base = profile_by_name(name)
        profile = dataclasses.replace(base,
                                      mpki_dram=miss_ratio * base.mem_pki)
        assert generate_trace(profile, accesses, seed=seed) == \
            _randrange_trace(profile, accesses, seed)

    def test_a_negative_access_count_is_refused(self):
        profile = profile_by_name("mcf")
        with pytest.raises(ValueError):
            generate_trace(profile, -5)
        with pytest.raises(ValueError):
            simulate_misses(profile, -5)


class TestLruOracle:
    """The cache model against a textbook LRU list, driven by the
    figure traces after the same warm-up as :func:`simulate_misses`.
    At 256 lines the 1,024-line hot set cannot stay resident; at 1,100
    the streaming lines push hot lines out on all but gcc.  Either way
    the victim choice shows in the miss flags."""

    @pytest.mark.parametrize("lines", [256, 1100])
    @pytest.mark.parametrize("name", ["mcf", "omnetpp", "canneal", "gcc"])
    def test_matches_a_textbook_lru(self, name, lines):
        warm_up = [line << CACHE_LINE_SHIFT for line in range(1024)]
        trace = generate_trace(profile_by_name(name), 20_000, seed=9)
        cache = CacheModel(lines=lines)
        lru = []  # most recent last
        for address in warm_up + trace:
            line = address >> CACHE_LINE_SHIFT
            expected_miss = line not in lru
            assert cache.access(address) is expected_miss
            if not expected_miss:
                lru.remove(line)
            elif len(lru) == lines:
                del lru[0]
            lru.append(line)
        assert list(cache._order) == lru


class TestFioSpecs:
    def test_four_rows(self):
        assert [s.name for s in TABLE3_SPECS] == \
            ["rand-read", "seq-read", "rand-write", "seq-write"]

    def test_sequential_blocks_larger_than_random(self):
        seq = next(s for s in TABLE3_SPECS if s.name == "seq-read")
        rand = next(s for s in TABLE3_SPECS if s.name == "rand-read")
        assert seq.block_bytes > rand.block_bytes

    def test_sector_alignment(self):
        assert all(s.block_bytes % 512 == 0 for s in TABLE3_SPECS)


class TestDiskTimingModel:
    def test_random_pays_seek(self):
        cycles = CycleCounter()
        model = DiskTimingModel(cycles)
        model.request(1000, 4096, "rand")
        assert cycles.total >= DISK_SEEK_CYCLES

    def test_sequential_streams(self):
        cycles = CycleCounter()
        model = DiskTimingModel(cycles)
        model.request(0, 4096, "seq")
        model.request(8, 4096, "seq")
        assert cycles.total < DISK_SEEK_CYCLES

    def test_contiguous_random_skips_seek(self):
        cycles = CycleCounter()
        model = DiskTimingModel(cycles)
        model.request(0, 4096, "rand")
        first = cycles.total
        model.request(8, 4096, "rand")  # head is already there
        assert cycles.total - first < DISK_SEEK_CYCLES
