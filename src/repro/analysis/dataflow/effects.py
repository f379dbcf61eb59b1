"""Effect summaries and the ambient-entropy flow behind FID015.

For every indexed function this module computes an
:class:`EffectSummary` of two bits:

* ``returns_param`` — syntactic "some return mentions a parameter"
  (the laundering hint the taint summaries also use);
* ``returns_entropy`` — may the return value derive from ambient
  entropy or the clock (flow-computed, see below).

The flow-sensitive ambient-entropy analysis is a forward taint pass
(same lattice machinery as FID010) whose sources are clock/entropy
calls, aliased references to them, and calls to ``returns_entropy``
functions; its sinks are RNG seeding (``random.Random(x)`` /
``rng.seed(x)``) and stores into simulation state (``self.attr`` or a
module-global container).  ``returns_entropy`` is folded over the
index for a bounded number of rounds, so an entropy-returning helper's
caller is a source too.

Known narrowness, inherited from the resolution policy and documented
in docs/dataflow.md: calls that do not resolve contribute no entropy,
and helpers behind ``obj.method(...)`` on non-unique names are unseen.
The rule built on top is therefore strict only about what the engine
can actually prove.
"""

import ast
from collections import namedtuple

from repro.analysis.astutil import dotted_name
from repro.analysis.dataflow.cfg import calls_in
from repro.analysis.dataflow.solver import solve_forward
from repro.analysis.dataflow.summaries import (
    MAX_ROUNDS, _returns_mention_param, called_names)
from repro.analysis.dataflow.taint import (
    CLEAN_CALL_NAMES, TaintAnalysis, _env_at)


EffectSummary = namedtuple("EffectSummary", "returns_param returns_entropy")


#: constructor calls whose result is a mutable container
MUTABLE_CONSTRUCTORS = frozenset({
    "dict", "list", "set", "bytearray", "OrderedDict", "defaultdict",
    "deque", "Counter",
})

CLOCK_MODULES = frozenset({"time"})
CLOCK_CALLS = frozenset({
    "datetime.now", "datetime.utcnow", "datetime.today", "date.today",
})
ENTROPY_MODULES = frozenset({"secrets"})
ENTROPY_CALLS = frozenset({"os.urandom", "uuid.uuid4", "uuid.uuid1"})

#: identifiers whose presence makes an entropy flow-solve worth running
_AMBIENT_PREFILTER_IDS = frozenset({
    "time", "uuid", "secrets", "random", "datetime", "urandom",
    "perf_counter", "monotonic", "now", "utcnow", "today", "seed",
    "Random",
})


def ambient_aliases(module):
    """(fn_aliases, module_aliases): local names bound by imports to
    ambient functions / modules, so ``from os import urandom as r`` and
    ``import time as t`` cannot dodge classification."""
    fn_aliases = {}
    module_aliases = {}
    interesting = (CLOCK_MODULES | ENTROPY_MODULES |
                   frozenset({"os", "uuid", "random", "datetime"}))
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                if top in interesting:
                    module_aliases[alias.asname or top] = top
        elif isinstance(node, ast.ImportFrom):
            top = (node.module or "").split(".")[0]
            if top in interesting:
                for alias in node.names:
                    fn_aliases[alias.asname or alias.name] = \
                        "%s.%s" % (node.module, alias.name)
    return fn_aliases, module_aliases


def _canonical_dotted(dotted, module_aliases):
    if not dotted:
        return dotted
    parts = dotted.split(".")
    parts[0] = module_aliases.get(parts[0], parts[0])
    return ".".join(parts)


def classify_ambient_ref(dotted):
    """A description of a reference to an ambient clock or entropy
    function, or None.  ``random.Random`` itself is excluded — only its
    unseeded *call* is ambient."""
    if not dotted:
        return None
    parts = dotted.split(".")
    top = parts[0]
    tail2 = ".".join(parts[-2:])
    if top in CLOCK_MODULES or tail2 in CLOCK_CALLS or \
            top in ENTROPY_MODULES or tail2 in ENTROPY_CALLS:
        return dotted
    if top == "random" and len(parts) >= 2 and parts[1] != "Random":
        return dotted + " (hidden module-global RNG state)"
    return None


def classify_ambient_call(call, fn_aliases, module_aliases,
                          shadowed=frozenset()):
    """Like :func:`classify_ambient_ref`, for a call site — adds the
    unseeded-``random.Random()`` case, sees through import aliases, and
    refuses to classify when the root name is a local/parameter
    (``secrets.append(...)`` on a list *called* secrets is not the
    secrets module)."""
    dotted = dotted_name(call.func) or ""
    if dotted.split(".")[0] in shadowed:
        return None
    if isinstance(call.func, ast.Name):
        dotted = fn_aliases.get(dotted, dotted)
    dotted = _canonical_dotted(dotted, module_aliases)
    tail2 = ".".join(dotted.split(".")[-2:])
    if tail2 == "random.Random":
        if not call.args and not call.keywords:
            return "unseeded random.Random()"
        return None
    return classify_ambient_ref(dotted)


def module_mutable_globals(module):
    """Module-level mutable bindings: ``name -> (lineno, kind)`` with
    kind ``"container"`` (a list/dict/set/... display or constructor)
    or ``"scalar"`` (rebound through a ``global`` declaration).
    Dunder names (``__all__``) are exempt."""
    out = {}
    bound_lines = {}
    for item in module.tree.body:
        if isinstance(item, ast.Assign):
            targets, value = item.targets, item.value
        elif isinstance(item, ast.AnnAssign) and item.value is not None:
            targets, value = [item.target], item.value
        else:
            continue
        kind = _mutable_value_kind(value)
        for target in targets:
            if not isinstance(target, ast.Name) or \
                    target.id.startswith("__"):
                continue
            bound_lines.setdefault(target.id, item.lineno)
            if kind and target.id not in out:
                out[target.id] = (item.lineno, kind)
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Global):
            continue
        for name in node.names:
            if name.startswith("__") or name in out:
                continue
            out[name] = (bound_lines.get(name, node.lineno), "scalar")
    return out


def _mutable_value_kind(value):
    if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                          ast.SetComp, ast.DictComp)):
        return "container"
    if isinstance(value, ast.Call):
        name = dotted_name(value.func) or ""
        if name.split(".")[-1] in MUTABLE_CONSTRUCTORS:
            return "container"
    return None


# ------------------------------------------------------- binding and shadows

def _binding_names(target):
    """Names a target pattern actually *binds*: bare names, through
    tuple/list/starred nesting.  ``x[k] = v`` and ``x.a = v`` bind
    nothing — the base name keeps referring to the enclosing scope,
    so such a store does not shadow it."""
    out, stack = set(), [target]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Starred):
            stack.append(node.value)
        elif isinstance(node, (ast.Tuple, ast.List)):
            stack.extend(node.elts)
    return out


def _assigned_names(func_node):
    names = set()
    for node in ast.walk(func_node):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                names.update(_binding_names(target))
        elif isinstance(node, ast.NamedExpr):
            names.update(_binding_names(node.target))
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            names.update(_binding_names(node.target))
        elif isinstance(node, ast.withitem) and \
                node.optional_vars is not None:
            names.update(_binding_names(node.optional_vars))
    return names


def _base_name(expr):
    """The root ``Name`` of a Subscript/Attribute chain, or None."""
    while isinstance(expr, (ast.Subscript, ast.Attribute)):
        expr = expr.value
    return expr.id if isinstance(expr, ast.Name) else None


# ------------------------------------------------------------ the summaries

def compute_effects(ctx):
    """qualname -> EffectSummary: the ``returns_param`` hint for every
    function, then a bounded flow phase for ``returns_entropy``."""
    sums = {fi.qualname: EffectSummary(_returns_mention_param(fi.node), False)
            for fi in ctx.index.functions}
    _fold_returns_entropy(ctx, sums)
    return sums


def _mentions_ambient(func_node):
    for node in ast.walk(func_node):
        if isinstance(node, ast.Name) and \
                node.id in _AMBIENT_PREFILTER_IDS:
            return True
        if isinstance(node, ast.Attribute) and \
                node.attr in _AMBIENT_PREFILTER_IDS:
            return True
    return False


def _fold_returns_entropy(ctx, sums):
    index = ctx.index
    aliases = {}
    mention_cache = {fi.qualname: _mentions_ambient(fi.node)
                     for fi in index.functions}
    names_cache = {fi.qualname: called_names(fi.node)
                   for fi in index.functions}
    for _round in range(MAX_ROUNDS):
        entropy_names = {fi.name for fi in index.functions
                         if sums[fi.qualname].returns_entropy}
        changed = False
        for fi in index.functions:
            if sums[fi.qualname].returns_entropy:
                continue
            if not (mention_cache[fi.qualname] or
                    names_cache[fi.qualname] & entropy_names):
                continue
            module = ctx.module_of(fi)
            if module.name not in aliases:
                aliases[module.name] = ambient_aliases(module)
            fn_aliases, module_aliases = aliases[module.name]
            analysis = AmbientEntropyAnalysis(
                fi, index, sums, fn_aliases, module_aliases)
            if _returns_entropy_flow(fi, module, ctx, analysis):
                sums[fi.qualname] = sums[fi.qualname]._replace(
                    returns_entropy=True)
                changed = True
        if not changed:
            break


# ------------------------------------------- the ambient-entropy flow (FID015)

class AmbientEntropyAnalysis(TaintAnalysis):
    """Forward ambient-entropy taint for one function.

    Reuses the FID010 lattice/transfer machinery wholesale; only the
    notion of "source" changes.  Tags are ``("entropy", what, line)``
    for values derived from the clock or an entropy pool, and
    ``("efn", dotted)`` for *references* to ambient readers, so
    ``reader = os.urandom; reader(8)`` is caught even though the call
    site itself is an innocent bare name.
    """

    def __init__(self, fi, index, effects, fn_aliases, module_aliases):
        super().__init__(fi.node, resolver=None, seed_params=False)
        self.fi = fi
        self.index = index
        self.effects = effects
        self.fn_aliases = fn_aliases
        self.module_aliases = module_aliases
        args = fi.node.args
        params = {a.arg for a in args.args + args.kwonlyargs +
                  getattr(args, "posonlyargs", [])}
        for extra in (args.vararg, args.kwarg):
            if extra is not None:
                params.add(extra.arg)
        self.shadowed = frozenset(params | _assigned_names(fi.node))

    def eval_expr(self, expr, env):
        if isinstance(expr, ast.Attribute) and \
                isinstance(expr.ctx, ast.Load):
            raw = dotted_name(expr) or ""
            if raw.split(".")[0] not in self.shadowed:
                dotted = _canonical_dotted(raw, self.module_aliases)
                classified = classify_ambient_ref(dotted)
                if classified is not None:
                    return frozenset({("efn", classified)})
        if isinstance(expr, ast.Name):
            tags = env.get(expr.id, frozenset())
            canonical = self.fn_aliases.get(expr.id)
            if canonical is not None and expr.id not in self.shadowed:
                classified = classify_ambient_ref(canonical)
                if classified is not None:
                    tags = tags | frozenset({("efn", classified)})
            return tags
        return super().eval_expr(expr, env)

    def _eval_call(self, call, env):
        classified = classify_ambient_call(
            call, self.fn_aliases, self.module_aliases, self.shadowed)
        if classified is not None:
            return frozenset({("entropy", classified, call.lineno)})
        dotted = _canonical_dotted(
            dotted_name(call.func) or "", self.module_aliases)
        if ".".join(dotted.split(".")[-2:]) == "random.Random":
            # a *seeded* RNG object is as deterministic as its seed;
            # the seed itself is checked at the sink
            return frozenset()
        if isinstance(call.func, ast.Name):
            for tag in env.get(call.func.id, frozenset()):
                if tag[0] == "efn":
                    return frozenset(
                        {("entropy", "call of aliased %s" % tag[1],
                          call.lineno)})
        name = dotted.split(".")[-1]
        if name in CLEAN_CALL_NAMES:
            return frozenset()
        target = self.index.resolve(call, self.fi)
        if target is not None:
            summary = self.effects.get(target.qualname)
            if summary is not None:
                if summary.returns_entropy:
                    return frozenset(
                        {("entropy", "return of %s()" % name,
                          call.lineno)})
                if summary.returns_param:
                    return self._union_args(call, env)
                return frozenset()
        tags = self._union_args(call, env)
        if isinstance(call.func, ast.Attribute):
            tags |= self.eval_expr(call.func.value, env)
        return frozenset(t for t in tags if t[0] in ("entropy", "efn"))


def _returns_entropy_flow(fi, module, ctx, analysis):
    cfg = ctx.cfg_for(module, fi.node)
    facts = solve_forward(cfg, analysis)
    for node in cfg.iter_stmt_nodes():
        stmt = node.stmt
        if not isinstance(stmt, ast.Return) or stmt.value is None:
            continue
        before = facts.get(node.nid)
        if before is None:
            continue
        tags = analysis.eval_expr(stmt.value, _env_at(before))
        if any(tag[0] == "entropy" for tag in tags):
            return True
    return False


def ambient_entropy_findings(fi, module, ctx):
    """(lineno, what-flowed, where-it-went) per entropy-to-state flow
    in one function — the FID015 work-horse."""
    effects = ctx.effects
    fn_aliases, module_aliases = ambient_aliases(module)
    mutables = frozenset(module_mutable_globals(module))
    analysis = AmbientEntropyAnalysis(
        fi, ctx.index, effects, fn_aliases, module_aliases)
    cfg = ctx.cfg_for(module, fi.node)
    facts = solve_forward(cfg, analysis)
    out = []
    for node in cfg.iter_stmt_nodes():
        before = facts.get(node.nid)
        if before is None:
            continue
        env = _env_at(before)
        for call in calls_in(node):
            dotted = _canonical_dotted(
                dotted_name(call.func) or "", module_aliases)
            tail2 = ".".join(dotted.split(".")[-2:])
            is_seed_sink = (
                tail2 == "random.Random" and (call.args or call.keywords))
            is_reseed = (isinstance(call.func, ast.Attribute) and
                         call.func.attr == "seed" and call.args)
            if not (is_seed_sink or is_reseed):
                continue
            tags = frozenset()
            for arg in call.args:
                tags |= analysis.eval_expr(arg, env)
            for kw in call.keywords:
                tags |= analysis.eval_expr(kw.value, env)
            entropy = sorted(t for t in tags if t[0] == "entropy")
            if entropy:
                out.append((call.lineno, entropy[0][1],
                            "the RNG seed (determinism laundering)"))
        stmt = node.stmt
        if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) \
                else [stmt.target]
            value = stmt.value
            if value is None:
                continue
            for target in targets:
                sink = _state_sink(target, mutables)
                if sink is None:
                    continue
                tags = analysis.eval_expr(value, env)
                entropy = sorted(t for t in tags if t[0] == "entropy")
                if entropy:
                    out.append((stmt.lineno, entropy[0][1], sink))
    return out


def _state_sink(target, mutables):
    if isinstance(target, ast.Attribute) and \
            isinstance(target.value, ast.Name) and \
            target.value.id == "self":
        return "simulation state (self.%s)" % target.attr
    if isinstance(target, (ast.Subscript, ast.Attribute)):
        base = _base_name(target)
        if base is not None and base in mutables:
            return "module-global state (%s)" % base
    return None
