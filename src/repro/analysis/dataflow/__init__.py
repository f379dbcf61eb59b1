"""Flow-sensitive dataflow layer under the fidelint rules.

The syntactic rules (FID001–FID009) ask "does this module *contain* a
forbidden call".  The dataflow layer answers the stronger questions the
paper's invariants actually pose — "can a decrypted value *reach* a
hypervisor-visible location", "is the gate closed again on *every* path
out" — by building per-function control-flow graphs, running small
forward dataflow analyses over them, and summarizing helper functions so
flows through calls inside ``repro.*`` are tracked too.

Layout:

* :mod:`~repro.analysis.dataflow.cfg` — statement-level CFG builder
  (branches, loops, ``try``/``except``/``finally``, ``with``, early
  returns and raises);
* :mod:`~repro.analysis.dataflow.solver` — generic forward worklist
  solver over small join semilattices;
* :mod:`~repro.analysis.dataflow.summaries` — the function index, the
  name-resolution policy, and the least-fixpoint per-function summaries
  (taint-returning, gate-opening/closing, always-charging);
* :mod:`~repro.analysis.dataflow.taint`,
  :mod:`~repro.analysis.dataflow.typestate`,
  :mod:`~repro.analysis.dataflow.charges` — the three analyses behind
  rules FID010 / FID011 / FID012;
* :mod:`~repro.analysis.dataflow.context` — the shared per-run cache
  (CFGs keyed by module and position, summaries computed once).

See ``docs/dataflow.md`` for the design rationale and the documented
approximations.
"""

from repro.analysis.dataflow.context import DataflowContext  # noqa: F401
