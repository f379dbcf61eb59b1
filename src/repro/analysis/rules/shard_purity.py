"""FID013: shard-purity — work handed to the runner must be effect-clean.

The sharded runner's contract (``docs/performance.md``, the parallel
equivalence soak) is that a ``jobs=N`` run aggregates to *byte-identical*
results with the serial run.  That holds only if every function
submitted as a :class:`~repro.runner.plan.WorkUnit` is transitively
free of the effects process boundaries do not replicate:

* **unregistered global mutation** — state accumulated in one worker
  process silently vanishes from the merged result.  Mutating a
  registered ``derived-cache``/``counters`` binding is legal **only**
  when its :mod:`~repro.common.state_registry` entry names a
  ``reset`` callable (the keystream caches are fine *because*
  ``clear_keystream_cache`` exists and workers can invoke it);
  writing a ``constant``-classified binding is always a bug;
* **ambient entropy** — unseeded RNG draws diverge per worker;
* **host clock reads** — legal only in the allowlisted timing-only
  modules (the executor's own timeout machinery, perfbench's
  measurement loops), which never feed wall-clock into modelled
  results.

The rule scans every module for ``WorkUnit(...)`` / ``WorkUnit.of(...)``
construction sites, resolves the ``fn`` argument with the call-graph's
narrow reference resolution, and checks the *transitive*
:class:`~repro.analysis.dataflow.effects.EffectSummary` — a helper's
helper bumping an unregistered counter is caught at the submission
site.  A ``fn`` that is not a statically resolvable module-level
function (a parameter, a bound method) is skipped: the runner's own
pickling requirement already polices that shape at runtime.
"""

import ast

from repro.common import state_registry
from repro.analysis.astutil import dotted_name
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import rule

#: modules whose wall-clock reads are the *point* (unit timeouts,
#: utilization, bench timing); FID007 suppressions in these
#: modules document why the readings never enter modelled results
TIMING_ALLOWED_MODULES = frozenset({
    "repro.runner.executor",
    "repro.eval.perfbench",
})


def workunit_sites(module):
    """(call-node, fn-expression) per WorkUnit construction site."""
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = dotted_name(node.func) or ""
        parts = dotted.split(".")
        fn_expr = None
        if parts[-2:] == ["WorkUnit", "of"] and len(node.args) >= 2:
            fn_expr = node.args[1]
        elif parts[-1:] == ["WorkUnit"] and parts[-2:] != \
                ["WorkUnit", "of"]:
            if len(node.args) >= 2:
                fn_expr = node.args[1]
            else:
                for kw in node.keywords:
                    if kw.arg == "fn":
                        fn_expr = kw.value
        if fn_expr is not None:
            yield node, fn_expr


def _finding(module, lineno, message):
    return Finding("FID013", "shard-purity", Severity.ERROR, module.name,
                   module.rel_path, lineno, message)


@rule("FID013", "shard-purity", Severity.ERROR,
      "Functions submitted to the sharded runner must be transitively "
      "free of unregistered global mutation, ambient entropy, and "
      "non-allowlisted clock reads.",
      example="""
      # BAD: worker-local accumulation is lost across the process pool
      _RESULTS = []
      def shard_fn(seed):
          _RESULTS.append(run(seed))
      # GOOD: return the value; the runner's merge aggregates it
      def shard_fn(seed):
          return run(seed)
      """)
def check(module, project):
    sites = list(workunit_sites(module))
    if not sites:
        return
    ctx = project.dataflow
    effects = ctx.effects
    index = ctx.index
    for call, fn_expr in sites:
        target = index.resolve_ref(fn_expr, module.name)
        if target is None:
            continue
        summary = effects.get(target.qualname)
        if summary is None:
            continue
        label = target.qualname
        for gmod, gname, writer in sorted(summary.writes):
            entry = state_registry.lookup(gmod, gname)
            if entry is None:
                yield _finding(
                    module, call.lineno,
                    "shard function %s mutates unregistered module "
                    "global %s.%s (via %s): worker-process state is "
                    "lost by the merge; register it in "
                    "repro.common.state_registry or return the value"
                    % (label, gmod, gname, writer))
            elif entry.classification == "constant":
                yield _finding(
                    module, call.lineno,
                    "shard function %s mutates %s.%s, registered as "
                    "constant (via %s): import-time tables must never "
                    "be written by work units" % (label, gmod, gname,
                                                  writer))
            elif not entry.reset:
                yield _finding(
                    module, call.lineno,
                    "shard function %s mutates %s.%s (%s) which has no "
                    "registered reset: add one so workers can clear "
                    "it"
                    % (label, gmod, gname, entry.classification))
        for qual, desc, lineno in sorted(summary.rng):
            yield _finding(
                module, call.lineno,
                "shard function %s draws ambient entropy: %s in %s "
                "(line %d)" % (label, desc, qual, lineno))
        for qual, desc, lineno in sorted(summary.clock):
            if qual.split(":")[0] in TIMING_ALLOWED_MODULES:
                continue
            yield _finding(
                module, call.lineno,
                "shard function %s reads the host clock: %s in %s "
                "(line %d); only the timing-allowlisted modules (%s) "
                "may" % (label, desc, qual, lineno,
                         ", ".join(sorted(TIMING_ALLOWED_MODULES))))
