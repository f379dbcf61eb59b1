"""Canonical serialization and digests for the determinism contract.

The runner's promise is that a sharded run aggregates to exactly the
serial run's output.  Tests and CI enforce that promise by comparing
:func:`digest`\\ s of the merged results: a canonical, order-stable
SHA-256 over a JSON rendering in which dataclasses, bytes, sets and
tuples all have one fixed spelling.

Wall-clock fields are the one thing sharding is *allowed* to change;
:func:`strip_timing` removes them (``*_s`` and the ``sharding``
section with its per-shard counters) so bench reports can also be
digest-compared across jobs settings.
"""

import dataclasses
import hashlib
import json

#: Key names (and suffixes) that carry host wall-clock, never model state.
TIMING_KEY_SUFFIXES = ("_s",)
TIMING_KEYS = frozenset({
    "sharding", "utilization", "host_cpus", "jobs", "worker",
})


def canonical(value):
    """A pure-JSON rendering with one spelling per Python shape."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (bytes, bytearray)):
        return ["bytes", bytes(value).hex()]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return ["dataclass", type(value).__name__,
                [[f.name, canonical(getattr(value, f.name))]
                 for f in dataclasses.fields(value)]]
    if isinstance(value, dict):
        items = [[canonical(k), canonical(v)] for k, v in value.items()]
        return ["dict", sorted(items, key=lambda kv: json.dumps(kv[0]))]
    if isinstance(value, (list, tuple)):
        return ["list", [canonical(v) for v in value]]
    if isinstance(value, (set, frozenset)):
        return ["set", sorted((canonical(v) for v in value),
                              key=json.dumps)]
    raise TypeError("no canonical form for %r" % type(value).__name__)


def digest(value):
    """Hex SHA-256 of the canonical rendering."""
    blob = json.dumps(canonical(value), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _is_timing_key(key):
    return key in TIMING_KEYS or (
        isinstance(key, str) and key.endswith(TIMING_KEY_SUFFIXES))


def strip_timing(value):
    """Recursively drop wall-clock-bearing dict keys.

    Applied before digesting artifacts like the fleetbench report, whose
    deterministic content (cycle charges, digests, the lockstep verdict)
    must not vary with ``--jobs`` while its timings naturally do.
    """
    if isinstance(value, dict):
        return {k: strip_timing(v) for k, v in value.items()
                if not _is_timing_key(k)}
    if isinstance(value, (list, tuple)):
        return [strip_timing(v) for v in value]
    return value


def deterministic_digest(value):
    """Digest of the timing-stripped value — the cross-``--jobs``
    comparison key for timed reports."""
    return digest(strip_timing(value))
