"""Canonical serialization and digests for the determinism contract.

The runner's promise is that a sharded run aggregates to exactly the
serial run's output.  Tests and CI enforce that promise by comparing
:func:`digest`\\ s of the merged results: a SHA-256 over one compact
JSON text in which every Python shape has one spelling.  Strings are
ASCII-escaped JSON strings, ints their decimal text, floats JSON
numbers or ``NaN``/``Infinity``/``-Infinity``, and ``None`` and bools
``null``/``true``/``false``; the containers are tagged lists::

    ["bytes","<hex>"]
    ["dataclass","<class name>",[["<field>",<value>],...]]
    ["dict",[[<key>,<value>],...]]     keys of any hashable shape
    ["list",[<value>,...]]             lists and tuples alike
    ["set",[<value>,...]]              sets and frozensets alike

Dict items and set elements are ordered by the text of the key (or
element) alone, in a stable sort, so items whose keys spell the same
(two NaN keys) keep their iteration order.

This spelling is fixed: every committed fleet, soak and findings
digest hashes it.  :func:`_text` writes it in one recursive pass.  The
two-pass form it replaced, a nested-list rendering that ``json.dumps``
then encoded a second time, is kept as the reference in
``tests/runner/reference_merge.py``, and a hypothesis property in
``tests/runner/test_merge.py`` holds the two byte-equal.  The writer
tests exact types first: ``str``, ``int``, ``None``, ``bool``,
``tuple``/``list`` and ``dict`` are nearly every node of a fleet
region's state, and a ``type(value) is`` test costs less than walking
an ``isinstance`` chain.  Only then do subclasses (``IntEnum``,
namedtuples), floats, bytes, dataclasses and sets go through
``isinstance``, in the reference's order of precedence; anything else
raises TypeError.

Wall-clock fields are the one thing sharding is *allowed* to change;
:func:`strip_timing` removes them (``*_s`` and the ``sharding``
section with its per-shard counters) so bench reports can also be
digest-compared across jobs settings.
"""

import dataclasses
import hashlib
import math
from json.encoder import encode_basestring_ascii as _str_text
from operator import itemgetter

#: Key names (and suffixes) that carry host wall-clock, never model state.
TIMING_KEY_SUFFIXES = ("_s",)
TIMING_KEYS = frozenset({
    "sharding", "utilization", "host_cpus", "jobs", "worker",
})


def _text(value):
    """The compact canonical JSON text of ``value``."""
    kind = type(value)
    if kind is str:
        return _str_text(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    if kind is tuple or kind is list:
        return _list_text(value)
    if kind is dict:
        return _dict_text(value)
    if isinstance(value, str):
        return _str_text(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    if isinstance(value, (bytes, bytearray)):
        return '["bytes","%s"]' % bytes(value).hex()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = ",".join(["[%s,%s]" % (_str_text(f.name),
                                        _text(getattr(value, f.name)))
                           for f in dataclasses.fields(value)])
        return '["dataclass",%s,[%s]]' % (_str_text(kind.__name__), fields)
    if isinstance(value, dict):
        return _dict_text(value)
    if isinstance(value, (list, tuple)):
        return _list_text(value)
    if isinstance(value, (set, frozenset)):
        return '["set",[%s]]' % ",".join(sorted(map(_text, value)))
    raise TypeError("no canonical form for %r" % kind.__name__)


def _list_text(values):
    # str and int items are spelled in line: they are most of a fleet
    # state's leaves, and a call per leaf cost a quarter of the writer's
    # time on a fleet region.
    parts = []
    for value in values:
        kind = type(value)
        parts.append(_str_text(value) if kind is str
                     else int.__repr__(value) if kind is int
                     else _text(value))
    return '["list",[%s]]' % ",".join(parts)


def _dict_text(mapping):
    items = sorted([(_text(key), value) for key, value in mapping.items()],
                   key=itemgetter(0))
    return '["dict",[%s]]' % ",".join(
        ["[%s,%s]" % (key, _text(value)) for key, value in items])


def digest(value):
    """Hex SHA-256 of the canonical text."""
    return hashlib.sha256(_text(value).encode("utf-8")).hexdigest()


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
