"""The function index, call resolution and per-function summaries.

Flow-sensitive rules need to see *through* helper calls ("the value
came out of ``self._decrypt_block(...)``, and that helper returns
decrypted bytes").  Whole-program pointer analysis is far out of scope
for a linter, so resolution is deliberately narrow and misses on the
side of "unknown":

* ``self.helper(...)`` resolves to a method of the caller's own class
  (or, failing that, a project-wide *unique* method of that name);
* a bare ``helper(...)`` resolves to a module-level function of the
  caller's module, or a project-wide unique module-level function;
* ``anything.helper(...)`` resolves only when exactly one function of
  that name exists in the whole project.

Anything ambiguous stays unresolved, and the analyses treat unresolved
calls pessimistically for taint (arguments propagate to the result) and
neutrally for gates/charges (no credit, no blame).

Each resolved function carries a :class:`Summary` — does it *return*
secret-tainted data, does it return data derived from its parameters,
does it open/close a gate, does it charge the cycle model on every
normal path — computed to a least fixpoint so helper chains
(``a() -> b() -> xex_decrypt``) are handled.
"""

import ast
from collections import namedtuple

Summary = namedtuple(
    "Summary",
    "returns_secret returns_param opens_gate closes_gate always_charges")

EMPTY_SUMMARY = Summary(False, False, False, False, False)

#: Summary fixpoint round cap; summary lattices are tiny booleans over
#: a shallow call graph, so this is never reached in practice.
MAX_ROUNDS = 8


class FunctionInfo:
    """One top-level function or method (nested defs are not indexed)."""

    __slots__ = ("qualname", "module", "class_name", "name", "node")

    def __init__(self, module_name, class_name, node):
        self.module = module_name
        self.class_name = class_name
        self.name = node.name
        self.node = node
        if class_name:
            self.qualname = "%s:%s.%s" % (module_name, class_name, node.name)
        else:
            self.qualname = "%s:%s" % (module_name, node.name)

    def __repr__(self):
        return "<FunctionInfo %s>" % self.qualname


def _is_func(item):
    return isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))


class FunctionIndex:
    """Every indexed function plus the resolution lookup tables."""

    def __init__(self, project):
        self.functions = []
        self.by_qualname = {}
        self._by_module = {}          # module name -> [FunctionInfo]
        self._bare_by_module = {}     # (module, name) -> FunctionInfo
        self._bare_by_name = {}       # name -> [FunctionInfo] (bare only)
        self._methods_by_class = {}   # (module, class) -> {name: fi}
        self._all_by_name = {}        # name -> [FunctionInfo]
        for module in project.sorted_modules():
            for item in module.tree.body:
                if _is_func(item):
                    self._add(module.name, None, item)
                elif isinstance(item, ast.ClassDef):
                    for sub in item.body:
                        if _is_func(sub):
                            self._add(module.name, item.name, sub)

    def _add(self, module_name, class_name, node):
        fi = FunctionInfo(module_name, class_name, node)
        self.functions.append(fi)
        self.by_qualname[fi.qualname] = fi
        self._by_module.setdefault(module_name, []).append(fi)
        self._all_by_name.setdefault(fi.name, []).append(fi)
        if class_name is None:
            self._bare_by_module[(module_name, fi.name)] = fi
            self._bare_by_name.setdefault(fi.name, []).append(fi)
        else:
            self._methods_by_class.setdefault(
                (module_name, class_name), {})[fi.name] = fi

    def functions_in(self, module_name):
        return self._by_module.get(module_name, [])

    def resolve(self, call, caller):
        """The FunctionInfo a call statically targets, or None."""
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
            if caller is not None:
                fi = self._bare_by_module.get((caller.module, name))
                if fi is not None:
                    return fi
            candidates = self._bare_by_name.get(name, ())
            if len(candidates) == 1:
                return candidates[0]
            return None
        if isinstance(func, ast.Attribute):
            name = func.attr
            receiver = func.value
            if isinstance(receiver, ast.Name) and receiver.id == "self" \
                    and caller is not None and caller.class_name:
                methods = self._methods_by_class.get(
                    (caller.module, caller.class_name), {})
                fi = methods.get(name)
                if fi is not None:
                    return fi
            candidates = self._all_by_name.get(name, ())
            if len(candidates) == 1:
                return candidates[0]
        return None


def called_names(func_node):
    """Every callee name appearing anywhere in the body (coarse: used
    only as a prefilter deciding whether a dataflow solve is needed)."""
    names = set()
    for node in ast.walk(func_node):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Attribute):
                names.add(node.func.attr)
            elif isinstance(node.func, ast.Name):
                names.add(node.func.id)
    return names


def _returns_mention_param(func_node):
    """Syntactic ``returns_param``: some return value mentions a
    parameter name (covers ``return bytes(data)``; laundering through
    a local is caught by the flow pass when a source is involved)."""
    args = func_node.args
    params = {a.arg for a in args.args + args.kwonlyargs}
    for extra in (args.vararg, args.kwarg):
        if extra is not None:
            params.add(extra.arg)
    params.discard("self")
    if not params:
        return False
    for node in ast.walk(func_node):
        if isinstance(node, ast.Return) and node.value is not None:
            for sub in ast.walk(node.value):
                if isinstance(sub, ast.Name) and sub.id in params:
                    return True
    return False


def compute_summaries(ctx):
    """qualname -> Summary, to a least fixpoint over the call graph."""
    from repro.analysis.dataflow import charges, taint, typestate

    index = ctx.index
    sums = {fi.qualname: EMPTY_SUMMARY for fi in index.functions}
    names_cache = {fi.qualname: called_names(fi.node)
                   for fi in index.functions}
    returns_param_cache = {fi.qualname: _returns_mention_param(fi.node)
                           for fi in index.functions}

    def resolver_for(fi):
        def resolve(call):
            target = index.resolve(call, fi)
            if target is None:
                return None
            return sums.get(target.qualname, EMPTY_SUMMARY)
        return resolve

    for _round in range(MAX_ROUNDS):
        secret_names = {fi.name for fi in index.functions
                        if sums[fi.qualname].returns_secret}
        open_names = {fi.name for fi in index.functions
                      if sums[fi.qualname].opens_gate}
        charge_names = {fi.name for fi in index.functions
                        if sums[fi.qualname].always_charges}
        changed = False
        for fi in index.functions:
            if fi.name in typestate.OPEN_CALLS or \
                    fi.name in typestate.CLOSE_CALLS:
                continue      # the primitives themselves stay EMPTY
            names = names_cache[fi.qualname]
            resolver = resolver_for(fi)

            returns_secret = False
            if names & taint.SOURCE_PREFILTER_NAMES or \
                    names & secret_names:
                returns_secret = taint.returns_secret(
                    fi, ctx.module_of(fi), ctx, resolver)

            opens_gate = False
            if names & typestate.OPEN_CALLS or names & open_names:
                opens_gate = typestate.opens_unbalanced(
                    fi, ctx.module_of(fi), ctx, resolver)

            closes_gate = bool(names & typestate.CLOSE_CALLS)

            always_charges = False
            if any("charge" in n for n in names) or names & charge_names:
                always_charges = charges.always_charges(
                    fi, ctx.module_of(fi), ctx, resolver)

            new = Summary(returns_secret, returns_param_cache[fi.qualname],
                          opens_gate, closes_gate, always_charges)
            if new != sums[fi.qualname]:
                sums[fi.qualname] = new
                changed = True
        if not changed:
            break
    return sums
