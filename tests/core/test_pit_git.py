"""Tests for the page information table and grant information table."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.constants import PAGE_SIZE
from repro.common.errors import ReproError
from repro.common.types import Owner, PageUsage, frame_addr
from repro.core.git import GitEntry, GrantInfoTable
from repro.core.pit import FREE_ENTRY, PageInfoTable, PitEntry
from repro.hw import Machine


@pytest.fixture
def machine():
    m = Machine(frames=1024, seed=3)
    m.build_host_address_space()
    return m


@pytest.fixture
def pit(machine):
    return PageInfoTable(machine, machine.allocator.alloc)


@pytest.fixture
def git(machine):
    return GrantInfoTable(machine, machine.allocator.alloc)


class TestPitEntryCodec:
    def test_roundtrip(self):
        entry = PitEntry(Owner.GUEST, PageUsage.GUEST_RAM, tag=37, valid=True)
        assert PitEntry.unpack(entry.pack()) == entry

    @given(owner=st.sampled_from(list(Owner)),
           usage=st.sampled_from(list(PageUsage)),
           tag=st.integers(0, 0xFFFF))
    def test_property_roundtrip(self, owner, usage, tag):
        entry = PitEntry(owner, usage, tag, valid=True)
        assert PitEntry.unpack(entry.pack()) == entry


class TestPageInfoTable:
    def test_unclassified_is_free(self, pit):
        assert pit.lookup(500) == FREE_ENTRY

    def test_classify_lookup(self, pit):
        pit.classify(500, Owner.XEN, PageUsage.NPT_PAGE, tag=3)
        info = pit.lookup(500)
        assert info.owner is Owner.XEN
        assert info.usage is PageUsage.NPT_PAGE
        assert info.tag == 3
        assert info.valid

    def test_invalidate(self, pit):
        pit.classify(500, Owner.GUEST, PageUsage.GUEST_RAM, tag=1)
        pit.invalidate(500)
        assert pit.lookup(500) == FREE_ENTRY

    def test_reclassify_overwrites(self, pit):
        pit.classify(500, Owner.GUEST, PageUsage.GUEST_RAM, tag=1)
        pit.classify(500, Owner.XEN, PageUsage.DATA)
        assert pit.lookup(500).owner is Owner.XEN

    def test_tree_grows_lazily(self, machine, pit):
        before = len(pit.table_pfns)
        pit.classify(0, Owner.XEN, PageUsage.DATA)
        pit.classify(1023, Owner.XEN, PageUsage.DATA)
        pit.classify(1024, Owner.XEN, PageUsage.DATA)  # next leaf
        assert len(pit.table_pfns) > before

    def test_entries_live_in_real_frames(self, machine, pit):
        """The PIT is memory, not a Python dict: its bytes are in frames
        the install step can write-protect."""
        pit.classify(500, Owner.FIDELIUS, PageUsage.PIT_PAGE)
        pa = pit.entry_pa(500)
        raw = int.from_bytes(machine.memory.read(pa, 4), "little")
        assert PitEntry.unpack(raw).owner is Owner.FIDELIUS

    def test_classify_many_and_scan(self, pit):
        pit.classify_many([5, 6, 7], Owner.GUEST, PageUsage.GUEST_RAM, tag=9)
        found = pit.frames_with(
            lambda e: e.valid and e.owner is Owner.GUEST and e.tag == 9,
            limit_pfn=32)
        assert found == [5, 6, 7]

    @given(pfns=st.sets(st.integers(0, 5000), min_size=1, max_size=30))
    def test_property_disjoint_classification(self, pfns):
        machine = Machine(frames=256, seed=1)
        pit = PageInfoTable(machine, machine.allocator.alloc)
        for pfn in pfns:
            pit.classify(pfn, Owner.GUEST, PageUsage.GUEST_RAM,
                         tag=pfn % 100)
        for pfn in pfns:
            assert pit.lookup(pfn).tag == pfn % 100


class TestGrantInfoTable:
    def _entry(self, **kw):
        defaults = dict(initiator_domid=1, target_domid=2, first_gfn=10,
                        nframes=4, readonly=False)
        defaults.update(kw)
        return GitEntry(**defaults)

    def test_record_and_find(self, git):
        git.record(self._entry())
        match = git.find_match(1, 2, 12)
        assert match is not None
        assert match.nframes == 4

    def test_range_boundaries(self, git):
        git.record(self._entry())
        assert git.find_match(1, 2, 10) is not None
        assert git.find_match(1, 2, 13) is not None
        assert git.find_match(1, 2, 14) is None
        assert git.find_match(1, 2, 9) is None

    def test_wrong_parties_do_not_match(self, git):
        git.record(self._entry())
        assert git.find_match(1, 3, 12) is None
        assert git.find_match(2, 2, 12) is None

    def test_remove_for_domain(self, git):
        git.record(self._entry())
        git.record(self._entry(initiator_domid=5, target_domid=1))
        removed = git.remove_for_domain(1)
        assert removed == 2
        assert git.find_match(1, 2, 12) is None

    def test_entries_for(self, git):
        git.record(self._entry())
        git.record(self._entry(first_gfn=40))
        assert len(git.entries_for(1)) == 2
        assert git.entries_for(7) == []

    def test_readonly_flag_roundtrip(self, git):
        git.record(self._entry(readonly=True))
        assert git.find_match(1, 2, 10).readonly

    def test_capacity_and_reuse(self, git):
        index = git.record(self._entry())
        git.remove(index)
        assert git.record(self._entry(first_gfn=99)) == index


# -- the GIT's frame walk against a per-slot loop over ``read(index)`` -------

def _reference_record(git, entry):
    for index in range(git.capacity):
        if git.read(index) is None:
            git._memory.write(git._entry_pa(index), entry.pack())
            return index
    raise ReproError("GIT full")


def _reference_remove_for_domain(git, domid):
    removed = 0
    for index in range(git.capacity):
        entry = git.read(index)
        if entry and domid in (entry.initiator_domid, entry.target_domid):
            git.remove(index)
            removed += 1
    return removed


def _reference_entries_for(git, initiator_domid):
    out = []
    for index in range(git.capacity):
        entry = git.read(index)
        if entry and entry.initiator_domid == initiator_domid:
            out.append(entry)
    return out


def _reference_find_match(git, initiator_domid, target_domid, gfn):
    for entry in _reference_entries_for(git, initiator_domid):
        if entry.target_domid == target_domid and entry.covers(gfn):
            return entry
    return None


def _table_bytes(git):
    return [git._memory.read(frame_addr(pfn), PAGE_SIZE)
            for pfn in git._frames]


def _git_pair():
    tables = []
    for _ in range(2):
        machine = Machine(frames=64, seed=3)
        tables.append(GrantInfoTable(machine, machine.allocator.alloc))
    return tables


_DOMIDS = st.integers(0, 3)
_DECLARATIONS = st.builds(
    GitEntry, initiator_domid=_DOMIDS, target_domid=_DOMIDS,
    first_gfn=st.integers(0, 12), nframes=st.integers(1, 6),
    readonly=st.booleans())
_GIT_OPS = st.lists(st.one_of(
    # a burst of copies, so the second frame and a full table are reached
    st.tuples(st.just("record"), _DECLARATIONS, st.integers(1, 90)),
    st.tuples(st.just("remove_for_domain"), _DOMIDS),
    st.tuples(st.just("remove"), st.integers(0, 255)),
), max_size=10)


class TestGitFrameWalk:
    @settings(max_examples=25, deadline=None)
    @given(ops=_GIT_OPS)
    def test_property_scans_equal_the_per_slot_loop(self, ops):
        git, reference = _git_pair()
        for op in ops:
            if op[0] == "record":
                for _ in range(op[2]):
                    try:
                        expected = _reference_record(reference, op[1])
                    except ReproError:
                        with pytest.raises(ReproError, match="GIT full"):
                            git.record(op[1])
                        break
                    assert git.record(op[1]) == expected
            elif op[0] == "remove_for_domain":
                assert git.remove_for_domain(op[1]) == \
                    _reference_remove_for_domain(reference, op[1])
            else:
                git.remove(op[1])
                reference.remove(op[1])
            assert _table_bytes(git) == _table_bytes(reference)
            for initiator in range(4):
                assert git.entries_for(initiator) == \
                    _reference_entries_for(reference, initiator)
                for target, gfn in ((0, 0), (1, 5), (2, 12), (3, 17)):
                    assert git.find_match(initiator, target, gfn) == \
                        _reference_find_match(reference, initiator,
                                              target, gfn)
        assert [entry for _, entry in git.slots()] == \
            [reference.read(index) for index in range(reference.capacity)]
