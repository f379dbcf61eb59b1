"""Rule modules; importing this package registers every rule.

Rule ids are stable API (baselines and suppressions reference them):

FID001 raw-memory        only repro.hw / repro.attacks touch raw frames
FID002 gate-monopoly     PIT/GIT/NPT/grant mutators called from gates only
FID003 layering          import DAG: common < hw < sev < xen < core < ...
FID004 cycle-accounting  state-touching repro.hw methods charge cycles
FID005 silent-except     no bare except / silent broad except
FID006 mutable-default   no mutable default arguments
FID007 determinism       no ambient randomness or wall-clock time
FID008 opcode-monopoly   privileged encodings live in two modules only
FID009 fault-containment fault-injection machinery stays in repro.faults
FID010 secret-taint      decrypted data sanitized before host-visible sinks
FID011 gate-typestate    every gate _enter matched by _exit on all paths
FID012 path-cycle-accounting  every working repro.hw path charges cycles
FID014 state-inventory   module-global mutables registered and classified
FID015 entropy-flow      ambient entropy never reaches seeds or state

FID010–FID012 are flow-sensitive: they run over the shared dataflow
layer (:mod:`repro.analysis.dataflow`) instead of bare AST matching.
FID014 reads the module-state registry
(:mod:`repro.common.state_registry`); FID015 runs the ambient-entropy
flow of :mod:`repro.analysis.dataflow.effects`.
"""

from repro.analysis.rules import (  # noqa: F401
    raw_memory,
    gates,
    layering,
    cycles,
    exceptions,
    mutable_defaults,
    determinism,
    opcode_literals,
    fault_containment,
    secret_taint,
    gate_typestate,
    path_cycles,
    state_inventory,
    entropy_flow,
)
