"""The shared per-run dataflow cache.

One :class:`DataflowContext` lives on the :class:`~repro.analysis
.project.Project` for the duration of one analyzer run.  It is built
lazily — a run selecting only syntactic rules never constructs it —
and shared by every rule that uses it, so:

* each module's AST is parsed exactly once (by ``Project.load``; the
  context only ever reuses ``module.tree``);
* each function's CFG is built exactly once, keyed by the module's
  name plus the function's position (``cfg_builds`` / ``cfg_hits``
  counters make this testable);
* the function index and the summary fixpoint are computed once and
  reused by FID010/FID011/FID012.
"""

from repro.analysis.dataflow.cfg import build_cfg


class DataflowContext:
    def __init__(self, project):
        self.project = project
        self._cfgs = {}
        self.cfg_builds = 0
        self.cfg_hits = 0
        self._index = None
        self._summaries = None
        self._callgraph = None
        self._effects = None

    @property
    def index(self):
        if self._index is None:
            from repro.analysis.dataflow.summaries import FunctionIndex
            self._index = FunctionIndex(self.project)
        return self._index

    @property
    def summaries(self):
        if self._summaries is None:
            from repro.analysis.dataflow.summaries import compute_summaries
            self._summaries = compute_summaries(self)
        return self._summaries

    @property
    def callgraph(self):
        """Project-wide call edges (built once, shared with effects)."""
        if self._callgraph is None:
            from repro.analysis.dataflow.callgraph import CallGraph
            self._callgraph = CallGraph(self)
        return self._callgraph

    @property
    def effects(self):
        """qualname -> EffectSummary, the transitive-effect fixpoint.
        Independent of :attr:`summaries`: a FID013-only run builds the
        call graph and effects but never the taint/gate summaries."""
        if self._effects is None:
            from repro.analysis.dataflow.effects import compute_effects
            self._effects = compute_effects(self)
        return self._effects

    def module_of(self, fi):
        return self.project.modules[fi.module]

    def cfg_for(self, module, func_node):
        key = (module.name, func_node.lineno,
               func_node.col_offset, func_node.name)
        cfg = self._cfgs.get(key)
        if cfg is None:
            cfg = build_cfg(func_node)
            self._cfgs[key] = cfg
            self.cfg_builds += 1
        else:
            self.cfg_hits += 1
        return cfg

    def resolver_for(self, fi):
        """A ``call -> Summary | None`` closure for one caller, backed
        by the fixpoint summaries."""
        sums = self.summaries
        index = self.index

        def resolve(call):
            target = index.resolve(call, fi)
            if target is None:
                return None
            return sums.get(target.qualname)
        return resolve

    def stats(self):
        return {"cfg_builds": self.cfg_builds, "cfg_hits": self.cfg_hits}
