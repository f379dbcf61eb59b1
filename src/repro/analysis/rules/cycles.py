"""FID004: cycle accounting in the hardware layer.

The performance claims of the reproduction rest on the cycle model:
every timed hardware operation charges ``CycleCounter``.  Statically,
a *public* method of a ``repro.hw`` class that stores into ``self``
state must either charge cycles somewhere in its body (any call whose
name contains "charge" counts, covering ``_charge_transfer`` style
helpers) or carry a ``fidelint: ignore[FID004]`` comment above its
``def`` saying where its cost is priced.

This is a syntactic approximation: writes that flow through the memory
controller are priced there at runtime, and boot-time construction is
deliberately free.  The suppressions record exactly those judgements
so a new un-priced mutation path cannot appear silently.
"""

import ast

from repro.analysis.astutil import calls_method_named, has_self_store, \
    iter_methods
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import rule


@rule("FID004", "cycle-accounting", Severity.WARNING,
      "Public state-touching method in repro.hw neither charges the "
      "cycle model nor carries a reviewed suppression.",
      example="""
      # BAD: mutates hardware state for free
      def insert(self, key, entry):
          self._entries[key] = entry
      # GOOD: price the operation in the shared cycle model
      def insert(self, key, entry):
          self._cycles.charge("tlb_insert")
          self._entries[key] = entry
      """)
def check(module, project):
    if module.subpackage != "hw":
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for method, decorators in iter_methods(node):
            if method.name.startswith("_"):
                continue
            if not has_self_store(method):
                continue
            if calls_method_named(method, _CHARGE_NAMES) or \
                    _calls_charge_like(method):
                continue
            yield Finding(
                "FID004", "cycle-accounting", Severity.WARNING,
                module.name, module.rel_path, method.lineno,
                "%s.%s mutates hardware state without charging the "
                "cycle model (charge it or allowlist it with a reason)"
                % (node.name, method.name))


_CHARGE_NAMES = frozenset({"charge"})


def _calls_charge_like(func_node):
    for node in ast.walk(func_node):
        if isinstance(node, ast.Call):
            name = None
            if isinstance(node.func, ast.Attribute):
                name = node.func.attr
            elif isinstance(node.func, ast.Name):
                name = node.func.id
            if name and "charge" in name:
                return True
    return False
