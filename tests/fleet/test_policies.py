"""Property-style tests for the control plane's one placement rule.

Spread's advertised invariants are held under hypothesis-generated
operation sequences driven through a real :class:`FleetModel`:

* spread keeps ``max_load - min_load <= 1`` across admissible hosts
  under launch churn (uniform-size guests, ample capacity: every
  placement lands on a current minimum, so imbalance cannot grow);
* placement is a pure function of (seed, operation sequence): two
  models driven identically, tags included, digest identically.

The capacity index itself is exercised against a brute-force rescan so
the O(log n) structure can never drift from the O(n) truth.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.plane import CapacityIndex, FleetError
from repro.fleet.model import FleetModel

#: (kind, value) op streams: launches with a size draw, shutdowns and
#: migrations picking among live guests by index
OPS = st.lists(
    st.tuples(st.sampled_from(["launch", "shutdown", "migrate"]),
              st.integers(0, 10_000)),
    max_size=60)

LAUNCH_ONLY = st.lists(st.integers(0, 10_000), max_size=60)


def _apply(model, ops, tags=False):
    """Drive one op stream of 1- to 12-frame guests; rejections are
    accepted outcomes."""
    serial = 0
    for kind, value in ops:
        try:
            if kind == "launch":
                tag = ("t%d" % (value % 3),) if tags else ()
                model.launch("g%d" % serial,
                             frames=1 + value % 12,
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
        ((len(host.guests), host.index), host.index)
        for host in model.hosts if host.admissible)
    assert model.capacity_index.ordered() == expected


class TestSpreadStaysBalanced:
    @settings(max_examples=40, deadline=None)
    @given(launches=LAUNCH_ONLY)
    def test_max_minus_min_stays_within_one(self, launches):
        # uniform 1-frame guests + ample capacity: every launch lands
        # on a current minimum, so imbalance never exceeds one
        model = FleetModel(hosts=5, host_frames=64, seed=3)
        for index, _ in enumerate(launches):
            model.launch("g%d" % index, frames=1)
            loads = [len(h.guests) for h in model.hosts]
            assert max(loads) - min(loads) <= 1
        _check_conservation(model)
        _check_index_against_rescan(model)

    @settings(max_examples=40, deadline=None)
    @given(ops=OPS)
    def test_index_survives_arbitrary_churn(self, ops):
        model = FleetModel(hosts=4, host_frames=32, seed=4)
        _apply(model, ops)
        _check_conservation(model)
        _check_index_against_rescan(model)


class TestDeterminism:
    @settings(max_examples=20, deadline=None)
    @given(ops=OPS)
    def test_identical_streams_digest_identically(self, ops):
        def run():
            model = FleetModel(hosts=4, host_frames=32, seed=9)
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
