"""Deterministic checkpoint/restore for whole simulated machines.

Serialize full :class:`~repro.hw.machine.Machine` /
:class:`~repro.cloud.Cloud` state — DRAM pages, per-ASID keys, VMCBs,
page tables, TLB and cache contents, cycle ledgers, Fidelius metadata —
into a content-addressed chunk store, and restore it bit-for-bit.

The package splits into three modules:

* :mod:`repro.checkpoint.store` — the content-addressed chunk store
  (SHA-256 over canonical bytes, page-granular dedup) and the
  crash-safe manifest/latest-pointer commit protocol;
* :mod:`repro.checkpoint.snapshot` — ``snapshot()`` / ``restore()``
  over live object graphs, with the ``fidelius-checkpoint/1`` manifest
  format and its fail-closed format-version and state-registry guards;
* :mod:`repro.checkpoint.oracle` — the restore-equivalence oracle: a
  restored clone driven in lockstep with the original fleet.

Layering: the package sits beside ``repro.eval`` (layer 8) — above the
fleet it serializes, below ``repro.faults`` so the chaos soak can save
its progress between seeds.
"""

from repro.checkpoint.store import (
    CheckpointError,
    CheckpointStore,
    ChunkStore,
    MemoryChunkStore,
)
from repro.checkpoint.snapshot import (
    MANIFEST_SCHEMA,
    registry_fingerprint,
    restore,
    restore_latest,
    snapshot,
)

__all__ = [
    "CheckpointError",
    "CheckpointStore",
    "ChunkStore",
    "MANIFEST_SCHEMA",
    "MemoryChunkStore",
    "registry_fingerprint",
    "restore",
    "restore_latest",
    "snapshot",
]
