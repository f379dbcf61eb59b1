"""The two-pass canonical digest that ``repro.runner.merge`` replaced.

:func:`canonical` renders a value into nested JSON lists with one
spelling per Python shape, and :func:`digest` hashes ``json.dumps`` of
that rendering.  ``repro.runner.merge.digest`` writes the same text in
one pass; ``test_merge.py`` holds the two byte-equal.  Kept verbatim:
it is the oracle, not a second implementation to maintain.
"""

import dataclasses
import hashlib
import json


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
