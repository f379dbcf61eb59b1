"""Property-style tests for the placement policies (ISSUE satellite).

Each policy's advertised invariant is held under hypothesis-generated
operation sequences driven through a real :class:`FleetModel`:

* ``bin_packing`` never overcommits a host — frame conservation holds
  after every operation, whatever the arrival sequence;
* ``spread`` keeps ``max_load - min_load <= 1`` across admissible
  hosts under launch churn (uniform-size guests, ample capacity: every
  placement lands on a current minimum, so imbalance cannot grow);
* ``affinity`` co-locates tagged tenants while capacity allows, and
  never overcommits falling back;
* placement is a pure function of (policy, seed, operation sequence):
  two models driven identically digest identically.

The capacity index itself is exercised against a brute-force rescan so
the O(log n) structure can never drift from the O(n) truth.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.policies import CapacityIndex, FleetError, make_policy
from repro.fleet.model import FleetModel

#: (kind, value) op streams: launches with a size draw, shutdowns and
#: migrations picking among live guests by index
OPS = st.lists(
    st.tuples(st.sampled_from(["launch", "shutdown", "migrate"]),
              st.integers(0, 10_000)),
    max_size=60)

LAUNCH_ONLY = st.lists(st.integers(0, 10_000), max_size=60)


def _apply(model, ops, frame_span=(1, 12), tags=False):
    """Drive one op stream; rejections are accepted outcomes."""
    serial = 0
    low, high = frame_span
    for kind, value in ops:
        try:
            if kind == "launch":
                tag = ("t%d" % (value % 3),) if tags else ()
                model.launch("g%d" % serial,
                             frames=low + value % (high - low + 1),
                             tags=tag)
                serial += 1
            elif model.guests:
                name = sorted(model.guests)[value % len(model.guests)]
                if kind == "shutdown":
                    model.shutdown(name)
                else:
                    model.migrate(name)
        except FleetError:
            pass
    return model


def _check_conservation(model):
    for host in model.hosts:
        resident = sum(host.guests.values())
        assert 0 <= host.free_frames <= host.frames
        assert host.free_frames + resident == host.frames


def _check_index_against_rescan(model):
    """The O(log n) index must equal a from-scratch O(n) rebuild."""
    expected = sorted(
        (model.policy.key(host), host.index)
        for host in model.hosts if host.admissible)
    assert model.capacity_index.ordered() == expected


class TestBinPackingNeverOvercommits:
    @settings(max_examples=40, deadline=None)
    @given(ops=OPS)
    def test_conservation_under_churn(self, ops):
        model = FleetModel(hosts=4, host_frames=24, seed=1,
                           policy="bin_packing")
        _apply(model, ops, frame_span=(1, 20))
        _check_conservation(model)
        _check_index_against_rescan(model)

    @settings(max_examples=25, deadline=None)
    @given(sizes=st.lists(st.integers(1, 24), max_size=30))
    def test_tightest_fit_is_chosen(self, sizes):
        model = FleetModel(hosts=4, host_frames=24, seed=2,
                           policy="bin_packing")
        for index, frames in enumerate(sizes):
            before = [(h.free_frames, h.index) for h in model.hosts
                      if h.admissible and h.free_frames >= frames]
            try:
                guest = model.launch("g%d" % index, frames=frames)
            except FleetError:
                assert not before
                continue
            assert (min(before)[1] == guest.host), \
                "bin-packing must pick the tightest admissible fit"


class TestSpreadStaysBalanced:
    @settings(max_examples=40, deadline=None)
    @given(launches=LAUNCH_ONLY)
    def test_max_minus_min_stays_within_one(self, launches):
        # uniform 1-frame guests + ample capacity: every launch lands
        # on a current minimum, so imbalance never exceeds one
        model = FleetModel(hosts=5, host_frames=64, seed=3,
                           policy="spread")
        for index, _ in enumerate(launches):
            model.launch("g%d" % index, frames=1)
            loads = [len(h.guests) for h in model.hosts]
            assert max(loads) - min(loads) <= 1
        _check_conservation(model)
        _check_index_against_rescan(model)

    @settings(max_examples=40, deadline=None)
    @given(ops=OPS)
    def test_index_survives_arbitrary_churn(self, ops):
        model = FleetModel(hosts=4, host_frames=32, seed=4,
                           policy="spread")
        _apply(model, ops)
        _check_conservation(model)
        _check_index_against_rescan(model)


class TestAffinityColocates:
    @settings(max_examples=40, deadline=None)
    @given(ops=OPS)
    def test_shared_tags_share_hosts_capacity_allowing(self, ops):
        model = FleetModel(hosts=4, host_frames=48, seed=5,
                           policy="affinity")
        _apply(model, ops, frame_span=(1, 4), tags=True)
        _check_conservation(model)
        _check_index_against_rescan(model)

    def test_tagged_launches_stack_until_the_host_fills(self):
        model = FleetModel(hosts=3, host_frames=8, seed=6,
                           policy="affinity")
        homes = [model.launch("g%d" % i, frames=2, tags=("db",)).host
                 for i in range(4)]
        assert len(set(homes)) == 1      # first host fills completely
        spill = model.launch("g4", frames=2, tags=("db",)).host
        assert spill != homes[0]          # then affinity spills over


class TestDeterminism:
    @settings(max_examples=20, deadline=None)
    @given(ops=OPS,
           policy=st.sampled_from(["spread", "bin_packing", "affinity"]))
    def test_identical_streams_digest_identically(self, ops, policy):
        def run():
            model = FleetModel(hosts=4, host_frames=32, seed=9,
                               policy=policy)
            _apply(model, ops, tags=True)
            return model.state_digest()

        assert run() == run()


class TestCapacityIndexUnit:
    def test_double_add_is_refused(self):
        index = CapacityIndex()
        index.add(0, (1, 0))
        try:
            index.add(0, (2, 0))
            assert False, "expected FleetError"
        except FleetError:
            pass

    def test_remove_and_membership(self):
        index = CapacityIndex()
        index.add(3, (5, 3))
        assert 3 in index and len(index) == 1
        assert index.remove(3) is True
        assert index.remove(3) is False
        assert 3 not in index

    def test_from_key_bisects(self):
        index = CapacityIndex()
        for host, free in enumerate((4, 9, 2, 9)):
            index.add(host, (free, host))
        assert index.from_key((5, -1)) == [((9, 1), 1), ((9, 3), 3)]

    def test_unknown_policy_name_is_refused(self):
        try:
            make_policy("round_robin")
            assert False, "expected FleetError"
        except FleetError:
            pass
