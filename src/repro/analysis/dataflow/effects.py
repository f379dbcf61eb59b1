"""Interprocedural effect summaries: who mutates what, who draws what.

The determinism story (byte-identical sharded merges, replayable soaks)
is a claim about *effects*: a function handed to the sharded runner
must not mutate process-global state the module-state registry does
not know about, must not draw ambient entropy, and must not read the
host clock into modelled results.  This module
computes, for every indexed function, an :class:`EffectSummary` —

* ``writes`` / ``reads`` — module-global bindings mutated / read,
  as ``(module, name, qualname-of-the-actual-writer)`` triples;
* ``rng`` — ambient entropy draws (``os.urandom``, ``secrets``,
  ``uuid4``, module-level ``random.*``, unseeded ``random.Random()``),
  including bare *references* to such functions (aliasing a reader is
  as bad as calling it);
* ``clock`` — host wall-clock reads (``time.*``, ``datetime.now``...);
* ``io`` / ``spawn`` — file-system access and process creation
  (informational: fidelint's own parallel worker legitimately reads
  the tree it analyzes);
* ``returns_param`` — syntactic "some return mentions a parameter"
  (the laundering hint the taint summaries also use);
* ``returns_entropy`` — may the return value derive from ambient
  entropy or the clock (flow-computed, see below).

Summaries are propagated to a least fixpoint over the
:class:`~repro.analysis.dataflow.callgraph.CallGraph` — plain monotone
set union, so recursion terminates — which is what lets FID013 reject a
shard function whose *helper's helper* bumps an unregistered counter.

The second half is the flow-sensitive ambient-entropy analysis behind
FID015: a forward taint pass (same lattice machinery as FID010) whose
sources are clock/entropy calls, aliased references to them, and calls
to ``returns_entropy`` functions; its sinks are RNG seeding
(``random.Random(x)`` / ``rng.seed(x)``) and stores into simulation
state (``self.attr`` or a module-global container).

Known narrowness, inherited from the resolution policy and documented
in docs/dataflow.md: calls that do not resolve contribute no effects,
and effects behind ``obj.method(...)`` on non-unique names are unseen.
The rules built on top are therefore strict only about what the engine
can actually prove.
"""

import ast
from collections import deque, namedtuple

from repro.analysis.astutil import dotted_name
from repro.analysis.dataflow.cfg import calls_in
from repro.analysis.dataflow.solver import solve_forward
from repro.analysis.dataflow.summaries import (
    MAX_ROUNDS, _returns_mention_param, called_names)
from repro.analysis.dataflow.taint import (
    CLEAN_CALL_NAMES, TaintAnalysis, _env_at)


class EffectSummary(namedtuple(
        "EffectSummary",
        "writes reads rng clock io spawn returns_param returns_entropy")):
    """Transitive effects of one function (all fields but the last two
    are frozensets; see the module docstring for element shapes)."""

    __slots__ = ()

    def writes_global(self, name=None):
        if name is None:
            return bool(self.writes)
        return any(n == name or "%s:%s" % (m, n) == name
                   for m, n, _writer in self.writes)

    def reads_global(self, name=None):
        if name is None:
            return bool(self.reads)
        return any(n == name or "%s:%s" % (m, n) == name
                   for m, n, _reader in self.reads)

    @property
    def unseeded_rng(self):
        return bool(self.rng)

    @property
    def reads_clock(self):
        return bool(self.clock)

    @property
    def does_io(self):
        return bool(self.io)

    @property
    def spawns_process(self):
        return bool(self.spawn)


EMPTY_EFFECTS = EffectSummary(
    frozenset(), frozenset(), frozenset(), frozenset(), frozenset(),
    frozenset(), False, False)

#: constructor calls whose result is a mutable container
MUTABLE_CONSTRUCTORS = frozenset({
    "dict", "list", "set", "bytearray", "OrderedDict", "defaultdict",
    "deque", "Counter",
})

#: method names that mutate their receiver in place
MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "add", "discard", "remove", "clear",
    "update", "pop", "popitem", "setdefault", "move_to_end", "sort",
    "reverse", "appendleft", "extendleft", "popleft", "subtract",
})

CLOCK_MODULES = frozenset({"time"})
CLOCK_CALLS = frozenset({
    "datetime.now", "datetime.utcnow", "datetime.today", "date.today",
})
ENTROPY_MODULES = frozenset({"secrets"})
ENTROPY_CALLS = frozenset({"os.urandom", "uuid.uuid4", "uuid.uuid1"})
IO_CALLS = frozenset({
    "os.remove", "os.unlink", "os.rename", "os.replace", "os.mkdir",
    "os.makedirs", "os.rmdir",
})
IO_MODULES = frozenset({"shutil", "tempfile"})
SPAWN_MODULES = frozenset({"subprocess", "multiprocessing"})
SPAWN_CALLS = frozenset({
    "os.fork", "os.system", "os.popen", "os.execv", "os.spawnv",
})

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
    """("rng"|"clock"|"io"|"spawn", description) for a reference to an
    ambient function, or None.  ``random.Random`` itself is excluded —
    only its unseeded *call* is ambient."""
    if not dotted:
        return None
    parts = dotted.split(".")
    top = parts[0]
    tail2 = ".".join(parts[-2:])
    if top in CLOCK_MODULES or tail2 in CLOCK_CALLS:
        return ("clock", dotted)
    if top in ENTROPY_MODULES or tail2 in ENTROPY_CALLS:
        return ("rng", dotted)
    if top == "random" and len(parts) >= 2 and parts[1] != "Random":
        return ("rng", dotted + " (hidden module-global RNG state)")
    if dotted == "open" or top in IO_MODULES or tail2 in IO_CALLS:
        return ("io", dotted)
    if top in SPAWN_MODULES or tail2 in SPAWN_CALLS:
        return ("spawn", dotted)
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
            return ("rng", "unseeded random.Random()")
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


# --------------------------------------------------- local effect extraction

def _binding_names(target):
    """Names a target pattern actually *binds*: bare names, through
    tuple/list/starred nesting.  ``x[k] = v`` and ``x.a = v`` bind
    nothing — the base name keeps referring to the enclosing scope,
    which is exactly why such stores are global writes, not shadows."""
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


def local_effects(fi, module, mutables, fn_aliases, module_aliases):
    """The :class:`EffectSummary` of one function body alone (nested
    defs included: a closure's effects belong to whoever defines it)."""
    qual = fi.qualname
    global_decls = set()
    for node in ast.walk(fi.node):
        if isinstance(node, ast.Global):
            global_decls.update(node.names)
    args = fi.node.args
    params = {a.arg for a in args.args + args.kwonlyargs +
              getattr(args, "posonlyargs", [])}
    for extra in (args.vararg, args.kwarg):
        if extra is not None:
            params.add(extra.arg)
    shadowed = (params | _assigned_names(fi.node)) - global_decls

    writes, reads = set(), set()
    rng, clock, io, spawn = set(), set(), set(), set()
    call_func_ids = set()

    def visible(name):
        return name in mutables and name not in shadowed

    def add_site(kind_desc, lineno):
        kind, desc = kind_desc
        {"rng": rng, "clock": clock, "io": io, "spawn": spawn}[kind].add(
            (qual, desc, lineno))

    for node in ast.walk(fi.node):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    if target.id in global_decls:
                        writes.add((module.name, target.id, qual))
                elif isinstance(target, (ast.Subscript, ast.Attribute)):
                    base = _base_name(target)
                    if base is not None and visible(base):
                        writes.add((module.name, base, qual))
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    if target.id in global_decls:
                        writes.add((module.name, target.id, qual))
                elif isinstance(target, (ast.Subscript, ast.Attribute)):
                    base = _base_name(target)
                    if base is not None and visible(base):
                        writes.add((module.name, base, qual))
        elif isinstance(node, ast.Call):
            call_func_ids.add(id(node.func))
            func = node.func
            if isinstance(func, ast.Attribute) and \
                    func.attr in MUTATING_METHODS:
                base = _base_name(func.value)
                if base is not None and visible(base):
                    writes.add((module.name, base, qual))
            classified = classify_ambient_call(
                node, fn_aliases, module_aliases, shadowed)
            if classified is not None:
                add_site(classified, node.lineno)
        elif isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                if visible(node.id):
                    reads.add((module.name, node.id, qual))
                canonical = fn_aliases.get(node.id)
                if canonical is not None and node.id not in shadowed \
                        and id(node) not in call_func_ids:
                    classified = classify_ambient_ref(canonical)
                    if classified is not None:
                        add_site(classified, node.lineno)

    # bare references to ambient functions (``reader = os.urandom``):
    # aliasing a nondeterministic reader is an effect in itself, and
    # ast.walk visits a Call before its ``func`` child, so direct call
    # spellings were already excluded via ``call_func_ids``
    for node in ast.walk(fi.node):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.ctx, ast.Load) and \
                id(node) not in call_func_ids:
            raw = dotted_name(node) or ""
            if raw.split(".")[0] in shadowed:
                continue
            dotted = _canonical_dotted(raw, module_aliases)
            classified = classify_ambient_ref(dotted or "")
            if classified is not None:
                add_site(classified, node.lineno)

    return EffectSummary(
        frozenset(writes), frozenset(reads), frozenset(rng),
        frozenset(clock), frozenset(io), frozenset(spawn),
        _returns_mention_param(fi.node), False)


# ------------------------------------------------------- transitive fixpoint

def compute_effects(ctx):
    """qualname -> EffectSummary, to a least fixpoint over the call
    graph (monotone set union: recursion and mutual recursion simply
    converge), then a bounded flow phase for ``returns_entropy``."""
    index = ctx.index
    graph = ctx.callgraph
    alias_cache = {}

    def aliases_of(module):
        if module.name not in alias_cache:
            alias_cache[module.name] = ambient_aliases(module)
        return alias_cache[module.name]

    mutables_cache = {}

    def mutables_of(module):
        if module.name not in mutables_cache:
            mutables_cache[module.name] = frozenset(
                module_mutable_globals(module))
        return mutables_cache[module.name]

    local = {}
    for fi in index.functions:
        module = ctx.module_of(fi)
        fn_aliases, module_aliases = aliases_of(module)
        local[fi.qualname] = local_effects(
            fi, module, mutables_of(module), fn_aliases, module_aliases)

    sums = dict(local)
    work = deque(sorted(local))
    queued = set(work)
    while work:
        qual = work.popleft()
        queued.discard(qual)
        merged = _union_effects(
            local[qual],
            [sums[c] for c in graph.callees(qual) if c in sums])
        if merged != sums[qual]:
            sums[qual] = merged
            for caller in graph.callers(qual):
                if caller in local and caller not in queued:
                    work.append(caller)
                    queued.add(caller)

    _fold_returns_entropy(ctx, sums, aliases_of, mutables_of)
    return sums


def _union_effects(base, others):
    writes = set(base.writes)
    reads = set(base.reads)
    rng = set(base.rng)
    clock = set(base.clock)
    io = set(base.io)
    spawn = set(base.spawn)
    for other in others:
        writes |= other.writes
        reads |= other.reads
        rng |= other.rng
        clock |= other.clock
        io |= other.io
        spawn |= other.spawn
    return base._replace(
        writes=frozenset(writes), reads=frozenset(reads),
        rng=frozenset(rng), clock=frozenset(clock), io=frozenset(io),
        spawn=frozenset(spawn))


def _mentions_ambient(func_node):
    for node in ast.walk(func_node):
        if isinstance(node, ast.Name) and \
                node.id in _AMBIENT_PREFILTER_IDS:
            return True
        if isinstance(node, ast.Attribute) and \
                node.attr in _AMBIENT_PREFILTER_IDS:
            return True
    return False


def _fold_returns_entropy(ctx, sums, aliases_of, mutables_of):
    index = ctx.index
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
            fn_aliases, module_aliases = aliases_of(module)
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
                if classified is not None and \
                        classified[0] in ("rng", "clock"):
                    return frozenset({("efn", classified[1])})
        if isinstance(expr, ast.Name):
            tags = env.get(expr.id, frozenset())
            canonical = self.fn_aliases.get(expr.id)
            if canonical is not None and expr.id not in self.shadowed:
                classified = classify_ambient_ref(canonical)
                if classified is not None and \
                        classified[0] in ("rng", "clock"):
                    tags = tags | frozenset({("efn", classified[1])})
            return tags
        return super().eval_expr(expr, env)

    def _eval_call(self, call, env):
        classified = classify_ambient_call(
            call, self.fn_aliases, self.module_aliases, self.shadowed)
        if classified is not None and classified[0] in ("rng", "clock"):
            return frozenset({("entropy", classified[1], call.lineno)})
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
