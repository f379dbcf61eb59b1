"""FID003: architectural layering over the import DAG.

The simulator is a strict stack —

    common(0) < hw/runner(1) < sev(2) < xen(3) < core(4)
             < system/workloads(5) < cloud(6) < fleet(7)
             < eval(8) < faults(9) < analysis(10)

— and a module may import only *strictly lower* layers (or its own
subpackage).  Two special cases: ``repro.attacks`` may import anything
(adversaries see the whole machine) but may itself be imported only by
``repro.eval`` (and tests, which live outside ``src``); the top-level
``repro`` facade re-exports everything and is exempt as a source.
"""

from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import rule

LAYERS = {
    "common": 0,
    "hw": 1,
    # The sharded execution layer is pure infrastructure over common:
    # it never learns what it runs, so eval/faults/attacks above it can
    # all hand it work units without creating back-edges.
    "runner": 1,
    "sev": 2,
    "xen": 3,
    "core": 4,
    "system": 5,
    "workloads": 5,
    # The control plane (ControlPlane, the placement policies) and
    # Cloud, its hook set on real Systems.
    "cloud": 6,
    # The discrete-event fleet model sits above cloud because FleetModel
    # subclasses the cloud layer's ControlPlane (its lockstep
    # differential also drives a real Cloud, and hydration materializes
    # real Systems), while eval (fleetbench) and faults (the soak's
    # EventQueue) reach down into it from above.
    "fleet": 7,
    "eval": 8,
    # The chaos subsystem sits above everything it arms (it drives the
    # whole fleet plus the eval checks), so its bisector calls the soak
    # directly; FID009 separately guarantees nothing imports it back.
    "faults": 9,
    # fidelint is tooling *over* the whole tree, imported by nothing in
    # src; it sits on top so it may reuse the runner for --jobs without
    # a back-edge, while no simulator layer may reach up into it.
    "analysis": 10,
}

ATTACKS_IMPORTERS = frozenset({"eval"})


def _subpackage(dotted):
    parts = dotted.split(".")
    return parts[1] if len(parts) > 1 else ""


@rule("FID003", "layering", Severity.ERROR,
      "Back-edge in the import DAG (common < hw < sev < xen < core < "
      "system < cloud < fleet < eval); nothing but eval/tests imports "
      "attacks.",
      example="""
      # BAD (in repro/hw/tlb.py): hw importing up into core
      from repro.core.gates import GateKeeper
      # GOOD: keep hw self-contained; core calls down into hw
      from repro.common.types import Access
      """)
def check(module, project):
    source = module.subpackage
    if source == "":          # the repro facade package
        return
    for target_name, lineno in module.imported_modules():
        target = _subpackage(target_name)
        if target == source:
            continue
        if target == "":
            yield Finding(
                "FID003", "layering", Severity.ERROR, module.name,
                module.rel_path, lineno,
                "import of the top-level repro facade from %s "
                "(facade imports everything: guaranteed cycle)" % source)
            continue
        if target == "attacks":
            if source not in ATTACKS_IMPORTERS:
                yield Finding(
                    "FID003", "layering", Severity.ERROR, module.name,
                    module.rel_path, lineno,
                    "repro.%s imports repro.attacks (only repro.eval and "
                    "tests may)" % source)
            continue
        if source == "attacks":
            continue          # attacks may import anything
        if target not in LAYERS:
            yield Finding(
                "FID003", "layering", Severity.ERROR, module.name,
                module.rel_path, lineno,
                "import of %s: subpackage %r has no declared layer "
                "(add it to repro.analysis.rules.layering.LAYERS)"
                % (target_name, target))
            continue
        if source not in LAYERS:
            yield Finding(
                "FID003", "layering", Severity.ERROR, module.name,
                module.rel_path, lineno,
                "module lives in undeclared layer %r" % source)
            return
        if LAYERS[target] >= LAYERS[source]:
            yield Finding(
                "FID003", "layering", Severity.ERROR, module.name,
                module.rel_path, lineno,
                "layering back-edge: repro.%s (layer %d) imports %s "
                "(layer %d)" % (source, LAYERS[source], target_name,
                                LAYERS[target]))
