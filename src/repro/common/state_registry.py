"""The module-global state registry: the audited inventory of
process-global mutable state.

Byte-identical sharded runs need a *complete, audited list* of every
piece of module-level mutable state in the simulator core, with a
classification that says what a reused worker process must do about
it —

``derived-cache``
    Recomputable from durable state; a sharded worker may keep it
    **only** because the registered ``reset`` callable empties it
    (FID014 requires the annotation).
``counters``
    Diagnostic tallies; excluded from determinism digests, cleared by
    the same ``reset`` as the cache they describe.
``rng``
    Seeded generator state; re-seed it, never copy it.
``constant``
    Built once at import and never mutated afterwards; a shard
    function that *writes* one is a bug wherever it happens.

FID014 enforces that every module-level mutable binding in
``repro.hw`` / ``repro.sev`` / ``repro.core`` / ``repro.common`` (and
``repro.cloud`` / ``repro.fleet``) appears here (and that no entry goes
stale), and ``fidelint --state-report`` emits the merged inventory as
a machine-readable artifact.

This manifest is *data about* the tree, matched purely syntactically —
nothing here imports the modules it describes.  It lives in
``repro.common`` (layer 0) so that any layer may read it: fidelint's
FID014 reads it for enforcement, and the end-to-end benchmark
(``e2ebench/``) calls every registered ``reset`` before each set-up,
so each starts from a fresh interpreter's state.
"""

from collections import namedtuple

#: the classifications FID014 accepts
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
    ("repro.common.crypto", "_dh_seen", "derived-cache",
     "clear_dh_tables",
     "bounded LRU of DH bases sighted once; public values only, never "
     "an exponent; decides when a table is built, never a result"),
    ("repro.common.crypto", "_dh_tables", "derived-cache",
     "clear_dh_tables",
     "bounded LRU of fixed-base tables; pure function of a public DH "
     "base, so every power equals pow(base, x, DH_PRIME)"),
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
