"""FID015: flow-sensitive unseeded entropy — no laundered ambient bits.

FID007 is syntactic: it bans the *spelling* of ambient nondeterminism
(``import time``, ``os.urandom(...)``, unseeded ``random.Random()``).
What it cannot see is laundering — ambient bits flowing through locals
and helpers until they *look* like a sanctioned seed:

    reader = os.urandom           # an alias, not a call: FID007 blind
    seed = reader(8)
    rng = random.Random(seed)     # "seeded" — with entropy

This rule runs the ambient-entropy taint analysis
(:class:`~repro.analysis.dataflow.effects.AmbientEntropyAnalysis`) over
every function that mentions an ambient source — the same lattice and
CFG machinery as FID010, with clock/entropy calls, aliased references
to them, and calls to ``returns_entropy`` helpers as sources — and
fires when a tainted value reaches either determinism-critical sink:

* the seed of ``random.Random(...)`` or an ``rng.seed(...)`` call —
  an RNG that *pretends* to be seeded is worse than an unseeded one,
  because the differential oracles will trust it;
* simulation state — a ``self.attr`` store or a module-global
  container — outside the timing-allowlisted modules.

Direct unseeded/wall-clock *calls* stay FID007's findings; FID015 only
reports flows, so the two rules never double-report one line.
"""

from repro.analysis.dataflow.effects import (
    _mentions_ambient, ambient_entropy_findings)
from repro.analysis.dataflow.summaries import called_names
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import rule

#: modules whose wall-clock reads are the *point* (unit timeouts,
#: utilization); their FID007 suppressions document why the readings
#: never enter modelled results
TIMING_ALLOWED_MODULES = frozenset({
    "repro.runner.executor",
})


@rule("FID015", "entropy-flow", Severity.ERROR,
      "Flow-sensitive ambient entropy: clock/urandom-derived values "
      "must not reach RNG seeds or simulation state, even through "
      "aliases and helper calls.",
      example="""
      # BAD: laundering — the RNG is 'seeded' with ambient entropy
      seed = int.from_bytes(os.urandom(8), 'big')
      rng = random.Random(seed)
      # GOOD: derive the seed from the run's own seed plan
      rng = random.Random(plan.seed_for('tracegen'))
      """)
def check(module, project):
    if module.name in TIMING_ALLOWED_MODULES:
        return
    ctx = project.dataflow
    entropy_names = {qual.split(":")[-1].split(".")[-1]
                     for qual, summary in ctx.effects.items()
                     if summary.returns_entropy}
    for fi in ctx.index.functions_in(module.name):
        if not (_mentions_ambient(fi.node) or
                called_names(fi.node) & entropy_names):
            continue
        for lineno, what, where in ambient_entropy_findings(
                fi, module, ctx):
            yield Finding(
                "FID015", "entropy-flow", Severity.ERROR, module.name,
                module.rel_path, lineno,
                "ambient entropy (%s) reaches %s in %s"
                % (what, where, fi.qualname))
