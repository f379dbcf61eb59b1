"""FID012: path-complete cycle accounting in the hardware layer.

The flow upgrade of FID004.  FID004 accepts a ``repro.hw`` method as
priced when a charge-like call appears *anywhere* in its body — so a
fast path added later (``if cached: return line`` before the charge)
silently stops being priced and the Table 4/5 timing claims quietly
rot.  This rule asks the path-complete question: in every public
``repro.hw`` method that participates in the cycle model (it contains a
charge-like call, directly or through an always-charging helper such as
``MemoryController.dma_write``), does **every normal path that does
hardware work** pass a charge first?

Approximations, shared with :mod:`repro.analysis.dataflow.charges`:
loops are assumed to run at least one iteration (zero-trip ``bypass``
edges are ignored); paths that raise are free; ``len``/``range``-style
pure queries are not "work".  A method whose un-priced path is a
reviewed judgement call carries a ``fidelint: ignore[FID012]`` comment
with the reason, as FID004's exceptions do.
"""

import ast

from repro.analysis.dataflow import charges
from repro.analysis.dataflow.summaries import called_names
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import rule

_EXAMPLE = """\
def flush_root(self, root_pfn):
    stale = [key for key in self._entries if key[0] == root_pfn]
    if not stale:
        return                      # the free path does no work
    self.cycles.charge(TLB_ENTRY_FLUSH_CYCLES * len(stale), "flush")
    for key in stale:
        del self._entries[key]      # every working path is priced
"""


@rule("FID012", "path-cycle-accounting", Severity.WARNING,
      "A public repro.hw method that participates in the cycle model "
      "has a path that does hardware work without charging.",
      needs_dataflow=True, example=_EXAMPLE)
def check(module, project):
    if module.subpackage != "hw":
        return
    ctx = project.dataflow
    for fi in ctx.index.functions_in(module.name):
        if fi.class_name is None or fi.name.startswith("_"):
            continue
        resolver = ctx.resolver_for(fi)
        if not _in_cycle_model(fi, resolver):
            continue      # not in the cycle model at all: FID004's beat
        lines = charges.uncharged_paths(fi, module, ctx, resolver)
        if lines:
            yield Finding(
                "FID012", "path-cycle-accounting", Severity.WARNING,
                module.name, module.rel_path, lines[0],
                "%s.%s has a path exiting here that does work without "
                "charging the cycle model (its charge calls sit on "
                "other paths)" % (fi.class_name, fi.name))


def _in_cycle_model(fi, resolver):
    """Whether the method participates in the cycle model: it calls
    something named like a charge, or a call *resolves* (same policy
    the transfer functions use) to an always-charging helper.  Bare
    name matching against the always-charging set is deliberately not
    enough — half the tree defines a ``read``/``write`` and only some
    of them price DRAM."""
    if any("charge" in n for n in called_names(fi.node)):
        return True
    for node in ast.walk(fi.node):
        if isinstance(node, ast.Call):
            summary = resolver(node)
            if summary is not None and summary.always_charges:
                return True
    return False
