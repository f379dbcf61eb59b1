"""FleetModel semantics: lifecycle, accounting, digests, pickling.

The model is the scale-regime twin of :class:`repro.cloud.Cloud`; these
tests pin the control-plane semantics the lockstep differential relies
on (least-loaded placement, quarantine-as-inadmissibility, restart on
failure) and the byte-stable digests that let regions shard and
pickle.
"""

import pickle

import pytest

from repro.fleet.events import Event, FleetError
from repro.fleet.model import (
    FAILED,
    QUARANTINED,
    RETIRED,
    UP,
    FleetModel,
)


def _model(hosts=3, host_frames=64, seed=7):
    return FleetModel(hosts=hosts, host_frames=host_frames, seed=seed)


def _conserved(model):
    for host in model.hosts:
        resident = sum(host.guests.values())
        assert 0 <= host.free_frames <= host.frames
        if host.state in (UP, QUARANTINED):
            assert host.free_frames + resident == host.frames


class TestGuestLifecycle:
    def test_launch_places_and_charges(self):
        model = _model()
        guest = model.launch("g0", frames=8, tags=("web",))
        assert guest.host == 0    # spread, ties to lowest index
        assert model.hosts[0].free_frames == 64 - 8
        assert model.metrics["launches"] == 1
        assert model.metrics["attests"] == 1
        assert model.metrics["busy_cycles"] == 4_776 + 476 * 8
        _conserved(model)

    def test_spread_balances_across_hosts(self):
        model = _model(hosts=3)
        for index in range(6):
            model.launch("g%d" % index, frames=4)
        loads = [len(h.guests) for h in model.hosts]
        assert loads == [2, 2, 2]

    def test_duplicate_name_rejected(self):
        model = _model()
        model.launch("dup", frames=4)
        with pytest.raises(FleetError):
            model.launch("dup", frames=4)

    def test_launch_with_no_capacity_anywhere_refuses(self):
        model = _model(hosts=2, host_frames=8)
        model.launch("a", frames=8)
        model.launch("b", frames=8)
        with pytest.raises(FleetError):
            model.launch("c", frames=1)

    def test_shutdown_frees_capacity(self):
        model = _model()
        model.launch("g", frames=16)
        model.shutdown("g")
        assert "g" not in model.guests
        assert model.hosts[0].free_frames == 64
        assert model.metrics["shutdowns"] == 1
        with pytest.raises(FleetError):
            model.shutdown("g")

    def test_migrate_moves_and_counts(self):
        model = _model(hosts=2)
        model.launch("g", frames=8)
        moved = model.migrate("g")     # the plane picks, excludes source
        assert moved.host == 1
        assert moved.migrations == 1
        assert model.hosts[0].guests == {}
        assert model.hosts[1].guests == {"g": 8}
        _conserved(model)

    def test_migrate_to_full_target_refuses(self):
        model = _model(hosts=2, host_frames=8)
        model.launch("big", frames=8)      # fills host 0
        model.launch("small", frames=4)    # lands on host 1
        with pytest.raises(FleetError):
            model.migrate("small", target=0)
        assert model.guests["small"].host == 1

    def test_migrate_to_own_host_is_a_no_op(self):
        model = _model()
        model.launch("g", frames=4)
        model.migrate("g", target=0)
        assert model.metrics["migrations"] == 0


class TestHostLifecycle:
    def test_failed_host_restarts_guests_elsewhere(self):
        model = _model(hosts=2)
        model.launch("a", frames=4)            # host 0
        model.launch("b", frames=4)            # host 1
        model.fail_host(0)
        assert model.hosts[0].state == FAILED
        assert model.guests["a"].host == 1
        assert model.guests["a"].restarts == 1
        assert model.metrics["restarts"] == 1
        assert model.metrics["failures"] == 1
        _conserved(model)

    def test_guest_is_lost_when_no_fleet_capacity_remains(self):
        model = _model(hosts=2, host_frames=8)
        model.launch("a", frames=8)
        model.launch("b", frames=8)
        model.fail_host(0)
        lost = [g for g in model.guests.values() if g.state == "LOST"]
        assert len(lost) == 1 and lost[0].host == -1
        assert model.metrics["lost_guests"] == 1

    def test_recover_readmits_with_fresh_keys(self):
        model = _model(hosts=2)
        epoch = model.hosts[0].key_epoch
        model.fail_host(0)
        model.recover_host(0)
        assert model.hosts[0].state == UP
        assert model.hosts[0].key_epoch == epoch + 1
        assert 0 in model.capacity_index

    def test_retire_drains_then_removes(self):
        model = _model(hosts=2)
        model.launch("a", frames=4)
        model.retire_host(0)
        assert model.hosts[0].state == RETIRED
        assert model.guests["a"].host == 1
        assert 0 not in model.inventory()
        # retired hosts take no rotations either
        assert model.rotate_host_keys(0) == 0

    def test_rotation_reencrypts_residents(self):
        model = _model(hosts=1)
        model.launch("a", frames=4)
        model.launch("b", frames=4)
        rotated = model.rotate_host_keys(0)
        assert rotated == 2
        epoch = model.hosts[0].key_epoch
        assert epoch == 1
        assert all(g.key_epoch == epoch for g in model.guests.values())
        assert model.metrics["rotated_guests"] == 2

    def test_scale_up_adds_admissible_capacity(self):
        model = _model(hosts=1, host_frames=8)
        model.launch("a", frames=8)
        model.dispatch(Event.of("scale-up", hosts=1, frames=8))
        assert len(model) == 2
        assert model.launch("b", frames=8).host == 1

    def test_a_fleet_of_bad_host_sizes_is_refused(self):
        for bad in (0, -4, True, 2.5, None):
            with pytest.raises(FleetError, match="host 0 cannot have"):
                _model(hosts=1, host_frames=bad)

    def test_scale_up_without_a_size_is_one_rejection(self):
        # spread scans an empty new host first: a sizeless one must
        # never join the fleet, or the next launch fails on its size
        model = _model(hosts=1, host_frames=8)
        model.launch("a", frames=4)
        model.queue.schedule(0, Event.of("scale-up", hosts=1))
        model.queue.schedule(1, Event.of("launch", name="b", frames=4))
        assert model.run() == 2
        assert model.metrics["rejected"] == 1
        assert model.metrics["scale_ups"] == 0
        assert len(model) == 1
        assert model.guests["b"].host == 0


class TestHostIndexValidation:
    """Every host-index entry point goes through the plane's check: an
    index outside ``[0, hosts)`` is a FleetError (a counted rejection
    under ``dispatch``), never an alias of a host from the end of the
    list and never an IndexError that crashes the run."""

    def test_bad_indices_leave_no_phantom_state(self):
        model = _model(hosts=3)
        for call in (model.quarantine_host, model.lift_quarantine,
                     model.fail_host, model.recover_host,
                     model.retire_host, model.rotate_host_keys):
            for bad in (-1, True, False):
                with pytest.raises(FleetError, match="no host %r" % bad):
                    call(bad)
        assert model.snapshot_state()["quarantined"] == []
        homes = [model.launch("g%d" % i, frames=4).host for i in range(4)]
        assert homes == [0, 1, 2, 0]
        with pytest.raises(FleetError, match="no host 99"):
            model.migrate("g0", target=99)
        assert model.guests["g0"].host == 0

    def test_dispatch_counts_a_bad_index_as_a_rejection(self):
        model = _model(hosts=3)
        for kind in ("host-fail", "host-recover", "rotate-host",
                     "scale-down", "evacuate"):
            model.dispatch(Event.of(kind, host=99))
        assert model.metrics["rejected"] == 5
        assert [host.state for host in model.hosts] == [UP] * 3


class TestEventDispatch:
    def test_rejection_is_counted_and_logged_not_raised(self):
        model = _model(hosts=1, host_frames=8)
        model.launch("a", frames=8)
        model.dispatch(Event.of("launch", name="b", frames=4))
        assert model.metrics["rejected"] == 1
        kind, details = model.events[-1]
        assert kind == "rejected"
        assert details["event"] == "launch"

    def test_unknown_kind_is_a_real_error(self):
        with pytest.raises(FleetError):
            _model().dispatch(Event.of("warp-core-breach"))

    def test_run_drains_the_queue(self):
        model = _model()
        for index in range(5):
            model.queue.schedule(index * 100,
                                 Event.of("launch", name="g%d" % index,
                                          frames=2))
        assert model.run() == 5
        assert len(model.queue) == 0 and model.queue.now == 400
        assert model.run() == 0


class TestDeterminismAndState:
    def test_identically_built_models_digest_identically(self):
        a, b = _model(seed=11), _model(seed=11)
        for model in (a, b):
            model.launch("g0", frames=4, tags=("t",))
            model.migrate("g0")
            model.rotate_host_keys(1)
        assert a.state_digest() == b.state_digest()

    def test_digest_sees_every_modelled_fact(self):
        a, b = _model(seed=11), _model(seed=11)
        b.launch("g", frames=4)
        assert a.state_digest() != b.state_digest()
        snap = b.snapshot_state()
        assert set(snap) == {"clock_ns", "guests", "hosts", "metrics",
                             "policy", "quarantined"}

    def test_model_pickles_round_trip(self):
        model = _model(hosts=1, host_frames=256)
        model.launch("g", frames=4)
        twin = pickle.loads(pickle.dumps(model))
        assert twin.state_digest() == model.state_digest()

