"""Fixture: anonymous module-global mutable (exactly one FID014).

``_TLB_SCRATCH`` is module-level mutable state in a snapshot-scoped
package with no :mod:`repro.common.state_registry` entry — restore
could never know to rebuild or drop it.
"""

_TLB_SCRATCH = {}


def remember(pfn, entry):
    _TLB_SCRATCH[pfn] = entry
    return entry
