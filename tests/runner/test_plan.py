"""Unit tests for the work-unit list, its merge keys and the canonical
digest."""

from dataclasses import dataclass

import pytest

from repro.common.errors import ReproError
from repro.runner import WorkUnit, digest, execute
from repro.runner.merge import deterministic_digest, strip_timing

from .reference_merge import canonical


def _noop(value):
    return value


def _units(n):
    return [WorkUnit.of(i, _noop, i) for i in range(n)]


class TestShardPlan:
    """The plan is the unit list itself: one dispatch per unit, results
    in submission order, keys unique."""

    def test_single_puts_one_unit_per_shard(self):
        report = execute(_units(5))
        assert [s["shard"] for s in report.sharding["shards"]] == \
            [0, 1, 2, 3, 4]
        assert [r.key for r in report.results] == [0, 1, 2, 3, 4]

    def test_duplicate_keys_rejected(self):
        units = [WorkUnit.of(7, _noop, 1), WorkUnit.of(7, _noop, 2)]
        with pytest.raises(ReproError):
            execute(units)

    def test_unit_kwargs_sorted_and_callable(self):
        unit = WorkUnit.of("k", dict, b=2, a=1)
        assert unit.kwargs == (("a", 1), ("b", 2))
        assert unit.call() == {"a": 1, "b": 2}


@dataclass(frozen=True)
class _Point:
    x: int
    payload: bytes


@dataclass(frozen=True)
class _Renamed:
    x: int
    payload: bytes


class TestDigest:
    def test_digest_is_stable_across_calls(self):
        value = [_Point(1, b"\x00\xff"), {"b": 2, "a": (1, 2)}, {3, 1}]
        assert digest(value) == digest(value) == \
            "783e24036573ebf2eb8f03bee46ff31bbd819306d2fa91d92f33f6d0a4271f36"

    def test_dict_order_does_not_matter(self):
        assert digest({"a": 1, "b": 2}) == digest({"b": 2, "a": 1})

    def test_bytes_and_str_distinct(self):
        assert digest(b"abc") != digest("abc")

    def test_dataclass_name_participates(self):
        assert canonical(_Point(1, b""))[1] == "_Point"
        assert digest(_Point(1, b"")) != digest(_Renamed(1, b""))

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            digest(object())

    def test_strip_timing_removes_wall_clock_keys(self):
        report = {
            "cycles_total": 10,
            "optimized_s": 1.5,
            "sharding": {"jobs": 2},
            "nested": [{"elapsed_s": 0.1, "ok": True}],
        }
        stripped = strip_timing(report)
        assert stripped == {"cycles_total": 10, "nested": [{"ok": True}]}

    def test_deterministic_digest_ignores_timing_only_changes(self):
        a = {"cycles": 5, "wall_s": 1.0}
        b = {"cycles": 5, "wall_s": 9.9}
        assert deterministic_digest(a) == deterministic_digest(b)
        assert deterministic_digest({"cycles": 6, "wall_s": 1.0}) \
            != deterministic_digest(a)
