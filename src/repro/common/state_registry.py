"""The module-global state registry: the snapshot/restore inventory.

Deterministic snapshot/restore (ROADMAP item 5) needs one thing before
any serializer can be written: a *complete, audited list* of every
piece of module-level mutable state in the simulator core, with a
classification that says what restore must do about it —

``derived-cache``
    Recomputable from durable state; restore may simply drop it, and a
    sharded worker may keep it **only** because the registered
    ``reset`` callable empties it (FID013 checks the annotation).
``counters``
    Diagnostic tallies; excluded from determinism digests, cleared by
    the same ``reset`` as the cache they describe.
``rng``
    Seeded generator state; restore must re-seed, never copy.
``constant``
    Built once at import and never mutated afterwards; a shard
    function that *writes* one is a bug wherever it happens.

FID014 enforces that every module-level mutable binding in
``repro.hw`` / ``repro.sev`` / ``repro.core`` / ``repro.common`` (and
``repro.cloud`` / ``repro.fleet``) appears here (and that no entry goes
stale), and ``fidelint --state-report`` emits the merged inventory as
the machine-readable seed artifact for the snapshot work.

This manifest is *data about* the tree, matched purely syntactically —
nothing here imports the modules it describes.  It lives in
``repro.common`` (layer 0) because it has two consumers on opposite
ends of the stack: the fidelint effect rules (FID013/FID014/FID016)
read it for enforcement, and ``repro.checkpoint`` hashes it into every
manifest (:func:`repro.checkpoint.snapshot.registry_fingerprint`) so a
checkpoint written against one state inventory fails closed when
loaded under another.
"""

from collections import namedtuple

#: the restore-semantics classes FID014 accepts
CLASSIFICATIONS = frozenset({
    "derived-cache", "counters", "rng", "constant",
})

StateEntry = namedtuple(
    "StateEntry", "module name classification reset reason")


def _build(entries):
    table = {}
    for module, name, classification, reset, reason in entries:
        if classification not in CLASSIFICATIONS:
            raise ValueError(
                "%s.%s: unknown classification %r"
                % (module, name, classification))
        key = (module, name)
        if key in table:
            raise ValueError("duplicate registry entry %s.%s"
                             % (module, name))
        table[key] = StateEntry(module, name, classification, reset,
                                reason)
    return table


#: (module, binding, classification, reset callable in that module or
#:  None, why it is safe) — keep sorted by module then name
REGISTRY = _build([
    ("repro.cloud.policies", "POLICIES", "constant", None,
     "placement-policy dispatch table built at import and only ever "
     "read (make_policy instantiates per control plane)"),
    ("repro.common.crypto", "_key_invalidations", "counters",
     "clear_keystream_cache",
     "forget_key tally for cache diagnostics; never enters results"),
    ("repro.common.crypto", "_line_cache", "derived-cache",
     "clear_keystream_cache",
     "whole-line keystream LRU; pure function of (key, line_pa)"),
    ("repro.common.crypto", "_line_hits", "counters",
     "clear_keystream_cache",
     "cache-effectiveness tally reported by keystream_cache_stats"),
    ("repro.common.crypto", "_line_misses", "counters",
     "clear_keystream_cache",
     "cache-effectiveness tally reported by keystream_cache_stats"),
    ("repro.common.crypto", "_midstate_cache", "derived-cache",
     "clear_keystream_cache",
     "per-(key, tweak) hash midstate LRU; recomputable on demand"),
    ("repro.common.crypto", "_midstate_hits", "counters",
     "clear_keystream_cache",
     "cache-effectiveness tally reported by keystream_cache_stats"),
    ("repro.common.crypto", "_midstate_misses", "counters",
     "clear_keystream_cache",
     "cache-effectiveness tally reported by keystream_cache_stats"),
    ("repro.common.crypto", "_span_cache", "derived-cache",
     "clear_keystream_cache",
     "multi-line span keystream LRU; pure function of (key, line_pa, "
     "nlines), purged with the line cache by forget_key"),
    ("repro.common.crypto", "_span_hits", "counters",
     "clear_keystream_cache",
     "cache-effectiveness tally reported by keystream_cache_stats"),
    ("repro.common.crypto", "_span_misses", "counters",
     "clear_keystream_cache",
     "cache-effectiveness tally reported by keystream_cache_stats"),
    ("repro.common.types", "PRIV_OPCODES", "constant", None,
     "privileged-encoding table built at import; FID008 guards the "
     "only writers"),
    ("repro.sev.exit_policy", "EXIT_POLICIES", "constant", None,
     "VMEXIT policy table built at import and only ever read"),
])


def lookup(module, name):
    """The :class:`StateEntry` for one binding, or None."""
    return REGISTRY.get((module, name))


def entries_for(module):
    """Registered entries for one module, sorted by name."""
    return sorted((e for (m, _n), e in REGISTRY.items() if m == module),
                  key=lambda e: e.name)


def all_entries():
    """Every entry, sorted by (module, name) — report order."""
    return [REGISTRY[key] for key in sorted(REGISTRY)]
