"""The project-wide call graph behind the effect-summary engine.

:mod:`~repro.analysis.dataflow.summaries` resolves calls one at a time
while a flow analysis walks a single function.  The effect engine
(:mod:`~repro.analysis.dataflow.effects`) needs the opposite view — the
whole ``caller -> callee`` relation at once, plus its reverse — so the
transitive-effect fixpoint can run a worklist over call edges instead
of re-walking every AST each round.

Edges come from the same deliberately narrow resolution policy FID010's
summaries use (:meth:`FunctionIndex.resolve`): ``self.helper`` to the
caller's own class, bare names to the caller's module or a project-wide
unique function, ``x.attr`` only when unique.  One addition on top:
**dispatch tables**.  A module-level ``TABLE = {"k": fn, ...}`` whose
values are module-level functions, called as ``TABLE[key](...)``, adds
an edge to *every* value — the over-approximation that lets the
effect rules see through dispatch such as ``repro.eval.__main__``'s
``COMMANDS`` table.

Unresolved calls simply contribute no edge; the effect analyses treat
them as effect-free, which is the documented under-approximation of the
whole dataflow layer (docs/dataflow.md).
"""

import ast


def _dispatch_tables(project, index):
    """(module, dict-name) -> tuple of callee qualnames, for module-level
    dict displays whose values name module-level functions."""
    tables = {}
    for module in project.sorted_modules():
        for item in module.tree.body:
            if not isinstance(item, ast.Assign) or len(item.targets) != 1:
                continue
            target = item.targets[0]
            if not isinstance(target, ast.Name) or \
                    not isinstance(item.value, ast.Dict):
                continue
            quals = []
            for value in item.value.values:
                if not isinstance(value, (ast.Name, ast.Attribute)):
                    continue
                fi = index.resolve_ref(value, module.name)
                if fi is not None:
                    quals.append(fi.qualname)
            if quals:
                tables[(module.name, target.id)] = tuple(sorted(set(quals)))
    return tables


class CallGraph:
    """Forward and reverse call edges over every indexed function."""

    def __init__(self, ctx):
        index = ctx.index
        self.dispatch_tables = _dispatch_tables(ctx.project, index)
        self._callees = {}
        self._callers = {}
        for fi in index.functions:
            callees = set()
            for node in ast.walk(fi.node):
                if not isinstance(node, ast.Call):
                    continue
                target = index.resolve(node, fi)
                if target is not None:
                    callees.add(target.qualname)
                    continue
                func = node.func
                if isinstance(func, ast.Subscript) and \
                        isinstance(func.value, ast.Name):
                    quals = self.dispatch_tables.get(
                        (fi.module, func.value.id))
                    if quals:
                        callees.update(quals)
            self._callees[fi.qualname] = frozenset(callees)
            for callee in callees:
                self._callers.setdefault(callee, set()).add(fi.qualname)

    def callees(self, qualname):
        return self._callees.get(qualname, frozenset())

    def callers(self, qualname):
        return self._callers.get(qualname, frozenset())

    def __len__(self):
        return sum(len(edges) for edges in self._callees.values())
