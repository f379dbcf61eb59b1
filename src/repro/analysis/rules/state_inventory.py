"""FID014: module-state inventory — no anonymous module-global state.

The pool's cache resets and the benchmark's fresh-interpreter set-ups
can only be trusted if the set of process-global mutable bindings in
the simulator core is a closed, audited list.  This rule makes the list
self-maintaining: every module-level mutable binding in ``repro.hw`` /
``repro.sev`` / ``repro.core`` / ``repro.common`` (and ``repro.cloud``
/ ``repro.fleet``) — container displays, mutable constructor calls
(``dict()``, ``OrderedDict()``...), and scalars rebound through
``global`` — must have a :mod:`~repro.common.state_registry` entry
carrying one of the four classifications (``derived-cache``,
``counters``, ``rng``, ``constant``), and every registry entry must
still match a real binding (stale entries fire on the registry module
itself, so the manifest cannot rot).

Every ``derived-cache`` entry must name a ``reset``, and a ``reset``
must name a function defined in the registered module: it is the hook
the runner's cache-resetting serial differential and the benchmark
call to empty every cache before a unit or a set-up.

``fidelint --state-report state.json`` emits the merged inventory
(registered + unregistered + stale) as a machine-readable artifact;
CI uploads it and fails on any unregistered binding through its
zero-tolerance fidelint step.
"""

import ast

from repro.common import state_registry
from repro.analysis.dataflow.effects import module_mutable_globals
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import rule

#: the simulator core ("cloud" and "fleet" ride along so the control
#: plane's placement-policy table, and any table the fleet model grows,
#: is inventoried like the others)
SCOPED_SUBPACKAGES = frozenset({"hw", "sev", "core", "common", "cloud",
                                "fleet"})

#: where stale-registry findings attach
REGISTRY_MODULE = "repro.common.state_registry"


def _finding(module, lineno, message):
    return Finding("FID014", "state-inventory", Severity.ERROR,
                   module.name, module.rel_path, lineno, message)


def inventory(project):
    """The merged view the report and the rule share:
    (registered, unregistered, stale) lists of dicts, each sorted."""
    registered, unregistered = [], []
    seen = set()
    for module in project.sorted_modules():
        if module.subpackage not in SCOPED_SUBPACKAGES:
            continue
        for name, (lineno, kind) in sorted(
                module_mutable_globals(module).items()):
            seen.add((module.name, name))
            entry = state_registry.lookup(module.name, name)
            record = {"module": module.name, "name": name,
                      "line": lineno, "kind": kind}
            if entry is None:
                unregistered.append(record)
            else:
                record.update({
                    "classification": entry.classification,
                    "reset": entry.reset, "reason": entry.reason,
                })
                registered.append(record)
    stale = []
    for entry in state_registry.all_entries():
        if entry.module in project.modules and \
                (entry.module, entry.name) not in seen:
            stale.append({"module": entry.module, "name": entry.name,
                          "classification": entry.classification})
    return registered, unregistered, stale


def _reset_defined(project, entry):
    module = project.modules.get(entry.module)
    if module is None:
        return True        # can't check what isn't in the tree
    for item in module.tree.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and item.name == entry.reset:
            return True
    return False


@rule("FID014", "state-inventory", Severity.ERROR,
      "Every module-level mutable binding in repro.hw/sev/core/common "
      "must be registered in repro.common.state_registry with a "
      "classification, and every derived-cache entry must name a "
      "reset; stale entries fail too.",
      example="""
      # BAD: anonymous module-global cache — no reset can reach it
      _TLB_SCRATCH = {}
      # GOOD: register it (repro/common/state_registry.py):
      #   ("repro.hw.tlb", "_TLB_SCRATCH", "derived-cache",
      #    "clear_tlb_scratch", "recomputable walk scratchpad"),
      """)
def check(module, project):
    if module.subpackage in SCOPED_SUBPACKAGES:
        for name, (lineno, kind) in sorted(
                module_mutable_globals(module).items()):
            entry = state_registry.lookup(module.name, name)
            if entry is None:
                yield _finding(
                    module, lineno,
                    "module-level mutable binding %r (%s) is not in the "
                    "module-state registry: classify it in "
                    "repro.common.state_registry (derived-cache / "
                    "counters / rng / constant)" % (name, kind))
            elif entry.classification == "derived-cache" \
                    and not entry.reset:
                yield _finding(
                    module, lineno,
                    "registry entry for derived cache %r names no reset: "
                    "add the module-level function that empties it"
                    % name)
            elif entry.reset and not _reset_defined(project, entry):
                yield _finding(
                    module, lineno,
                    "registry entry for %r names reset %r, which is not "
                    "a module-level function of %s"
                    % (name, entry.reset, module.name))
    if module.name == REGISTRY_MODULE:
        # stale entries attach to the manifest so the fix is made where
        # the rot lives
        _registered, _unregistered, stale = inventory(project)
        for record in stale:
            yield _finding(
                module, 1,
                "stale registry entry %s.%s (%s): no such module-level "
                "mutable binding exists any more — delete the entry"
                % (record["module"], record["name"],
                   record["classification"]))
