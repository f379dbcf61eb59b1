"""One conformance suite for the control plane's two hook sets.

:class:`~repro.cloud.Cloud` (real hosts) and
:class:`~repro.fleet.model.FleetModel` (charged records) run the same
:class:`~repro.cloud.plane.ControlPlane`.  Every test here runs the
shared contract against a 3-host ``Cloud`` and a 3-host spread
``FleetModel`` alike, through the plane's own method names.
"""

import re

import pytest

from repro.cloud import Cloud, FleetError
from repro.fleet.model import FleetModel
from repro.system import GuestOwner
from repro.xen import hypercalls as hc

GUEST_FRAMES = 16


@pytest.fixture(params=["cloud", "model"])
def plane(request):
    if request.param == "cloud":
        return Cloud(hosts=3, frames=2048, seed=0xC0F0)
    return FleetModel(hosts=3, host_frames=2048, seed=7)


def _launch(plane, name, host=None, frames=GUEST_FRAMES):
    """``plane.launch``; a cloud tenant also needs an owner, and its
    vCPU must yield before another guest's can run."""
    if not isinstance(plane, Cloud):
        return plane.launch(name, frames, host=host)
    guest = plane.launch(name, frames, host=host,
                         owner=GuestOwner(seed=len(plane.guests) + 1),
                         payload=b"conformance|" + name.encode())
    guest.ctx.hypercall(hc.HC_SCHED_YIELD)
    return guest


class TestPlacement:
    def test_least_loaded_with_ties_to_the_lowest_index(self, plane):
        assert plane.pick_host() == 0
        homes = [_launch(plane, "g%d" % i).host for i in range(4)]
        assert homes == [0, 1, 2, 0]
        assert plane.pick_host() == 1          # hosts 1 and 2 tie
        assert plane.pick_host(exclude={1}) == 2


class TestQuarantine:
    def test_quarantine_excludes_and_lift_readmits(self, plane):
        plane.quarantine_host(0)
        assert plane.quarantined == {0}
        assert [_launch(plane, n).host for n in ("a", "b")] == [1, 2]
        with pytest.raises(FleetError):
            plane.pick_host(exclude={1, 2})
        assert plane.lift_quarantine(0)
        assert plane.quarantined == set()
        assert _launch(plane, "c").host == 0
        assert plane.event_kinds() == ["host-quarantined",
                                       "quarantine-lifted"]


class TestDrain:
    def test_evacuation_repicks_per_guest(self, plane):
        for name in ("a", "b"):
            _launch(plane, name, host=0)
        assert plane.evacuate(0) == ["a", "b"]
        # spread, not pile-up: each guest goes to the head of the order
        assert plane.inventory() == {0: [], 1: ["a"], 2: ["b"]}

    def test_stalled_drain_leaves_guest_on_source(self, plane):
        _launch(plane, "a", host=0)
        plane.quarantine_host(1)
        plane.quarantine_host(2)
        with pytest.raises(FleetError, match="nowhere to evacuate to"):
            plane.evacuate(0)
        assert plane.guests["a"].host == 0
        assert plane.inventory() == {0: ["a"], 1: [], 2: []}
        assert plane.event_kinds()[-1] == "evacuation-stalled"


class TestHostIndices:
    def test_out_of_range_indices_are_refused(self, plane):
        _launch(plane, "g", host=1)
        for bad in (-1, 3, 7, True, False):
            for call in (plane.quarantine_host, plane.lift_quarantine,
                         plane.attest_host, plane.evacuate,
                         lambda index: plane.migrate("g", target=index),
                         lambda index: _launch(plane, "h", host=index)):
                with pytest.raises(FleetError, match="no host %r" % bad):
                    call(bad)
        assert plane.quarantined == set()
        assert plane.inventory() == {0: [], 1: ["g"], 2: []}
        assert plane.event_kinds() == []


class TestGuestSizes:
    def test_bad_sizes_are_refused_before_any_hook(self, plane,
                                                   monkeypatch):
        def hook(*args, **kwargs):
            raise AssertionError("a hook ran for a bad guest size")

        for name in ("_attest", "_boot"):
            monkeypatch.setattr(plane, name, hook)
        for bad in (0, -16, True, False, 2.5, "16", None):
            for host in (None, 1):
                with pytest.raises(FleetError, match=re.escape(
                        "cannot have %r frames" % (bad,))):
                    _launch(plane, "g", host=host, frames=bad)
        assert plane.guests == {}
        assert [h.free_frames for h in plane.host_records] == [2048] * 3


class TestHostSizes:
    def test_bad_host_sizes_are_refused(self, plane):
        for bad in (0, -4, True, False, 2.5, "16", None):
            with pytest.raises(FleetError, match=re.escape(
                    "host 3 cannot have %r frames" % (bad,))):
                plane.add_host(bad, seed=99)
        assert len(plane) == 3
