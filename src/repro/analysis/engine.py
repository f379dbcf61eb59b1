"""The fidelint engine: load, run rules, fold in suppressions + baseline.

The run is structured so serial and ``jobs=N`` analysis are *the same
computation*: a shard-safe worker (:func:`_analyze_worker`) produces
raw findings — line text, occurrence counter and suppression flag all
resolved, everything module-local — for a contiguous chunk of modules,
and the parent folds the concatenated stream through the baseline and
sorts.  Occurrence counters (the fingerprint disambiguator) are keyed
per ``(rule, module, line text)``, so per-module sharding cannot
perturb them, and the merged findings digest is byte-identical
whatever ``jobs`` was — the same contract ``repro.runner`` makes for
the simulator's own work, checked in CI for fidelint itself.
"""

from collections import Counter
from dataclasses import dataclass, field

from repro.analysis.baseline import load_baseline
from repro.analysis.findings import Severity
from repro.analysis.project import Project
from repro.analysis.registry import all_rules


@dataclass
class AnalysisResult:
    """Everything one analyzer run produced."""

    findings: list = field(default_factory=list)      # active (fail-worthy)
    suppressed: list = field(default_factory=list)    # inline-ignored
    baselined: list = field(default_factory=list)     # grandfathered
    stale_baseline: list = field(default_factory=list)  # unmatched entries
    modules_scanned: int = 0
    rules_run: int = 0

    @property
    def error_count(self):
        return sum(1 for f in self.findings
                   if f.severity is Severity.ERROR)

    @property
    def warning_count(self):
        return sum(1 for f in self.findings
                   if f.severity is Severity.WARNING)

    def exit_code(self, strict=False):
        """0 = clean.  Errors always fail; ``--strict`` also fails on
        warnings and on stale baseline entries (so the baseline cannot
        rot silently in CI)."""
        if self.error_count:
            return 1
        if strict and (self.warning_count or self.stale_baseline):
            return 1
        return 0

    def to_dict(self):
        return {
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [f.to_dict() for f in self.suppressed],
            "baselined": [f.to_dict() for f in self.baselined],
            "stale_baseline": list(self.stale_baseline),
            "counts": {
                "error": self.error_count,
                "warning": self.warning_count,
                "suppressed": len(self.suppressed),
                "baselined": len(self.baselined),
                "modules": self.modules_scanned,
                "rules": self.rules_run,
            },
        }


def findings_digest(result):
    """Canonical SHA-256 over the full result dict — the key CI
    compares between ``--jobs N`` and serial runs."""
    from repro.runner.merge import digest
    return digest(result.to_dict())


def _select_rules(rules, select):
    if not select:
        return list(rules)
    wanted = {rule_id.upper() for rule_id in select}
    unknown = wanted - {r.rule_id for r in rules}
    if unknown:
        raise ValueError("unknown rule ids: %s"
                         % ", ".join(sorted(unknown)))
    return [r for r in rules if r.rule_id in wanted]


def _prepare_capabilities(project, rules):
    """Build the shared caches the selected rules declare a need for —
    once, up front; a purely syntactic run never touches them."""
    if any(getattr(r, "needs_dataflow", False) for r in rules):
        project.dataflow.summaries
    if any(getattr(r, "needs_effects", False) for r in rules):
        project.dataflow.effects


def _assign_occurrences(raw):
    """(Re)number occurrence counters over an ordered finding stream.
    The key is module-local and intra-module order is deterministic,
    so the numbering is identical whether findings came from one
    process or N shards — idempotent by construction."""
    occurrences = Counter()
    for finding in raw:
        key = (finding.rule_id, finding.module, finding.line_text)
        finding.occurrence = occurrences[key]
        occurrences[key] += 1
    return raw


def _raw_findings(project, rules, module_names):
    """Raw findings for a subset of modules, in deterministic order,
    with line text, occurrence counter and suppression flag resolved.
    Everything here is module-local, which is what makes per-module
    sharding exact."""
    raw = []
    for name in module_names:
        module = project.modules[name]
        for rule_obj in rules:
            for finding in rule_obj.run(module, project):
                finding.line_text = module.line_text(finding.line)
                finding.suppressed = module.is_suppressed(
                    finding.rule_id, finding.line)
                raw.append(finding)
    return _assign_occurrences(raw)


def _analyze_worker(root, module_names, select):
    """Shard worker: raw findings for one chunk of modules.

    Module-level and picklable on purpose — it is submitted to
    ``repro.runner`` as a :class:`WorkUnit`, which also makes it
    subject to fidelint's own FID013 shard-purity rule: it loads a
    fresh project per chunk (summaries are project-wide) precisely so
    it needs no process-global caching.
    """
    project = Project.load(root)
    rules = _select_rules(all_rules(), select)
    _prepare_capabilities(project, rules)
    return _raw_findings(project, rules, list(module_names))


def _chunk(names, jobs):
    count = max(1, min(jobs, len(names)))
    size, extra = divmod(len(names), count)
    out, start = [], 0
    for index in range(count):
        end = start + size + (1 if index < extra else 0)
        if start < end:
            out.append(tuple(names[start:end]))
        start = end
    return out


def _parallel_raw(root, module_names, select, jobs, reuse_workers=True):
    from repro.runner import WorkUnit, execute
    units = [WorkUnit.of(("modules", index), _analyze_worker,
                         root, chunk, select)
             for index, chunk in enumerate(_chunk(module_names, jobs))]
    report = execute(units, jobs=jobs, reuse_workers=reuse_workers)
    raw = []
    for chunk_findings in report.values():
        raw.extend(chunk_findings)
    return _assign_occurrences(raw)


def analyze(root, rules=None, baseline_path=None, select=None, jobs=1,
            reuse_workers=True):
    """Analyze the tree under ``root`` and return an AnalysisResult.

    ``select`` limits the run to an iterable of rule ids;
    ``baseline_path`` points at the committed baseline (None = none);
    ``jobs > 1`` shards the analysis over worker processes via
    ``repro.runner`` (registry rules only — a custom ``rules`` list is
    not picklable and forces the serial path).  Output is byte-identical
    whatever ``jobs`` was.
    """
    custom_rules = rules is not None
    project = root if isinstance(root, Project) else Project.load(root)
    rules = list(rules if custom_rules else all_rules())
    select_normalized = None
    if select:
        select_normalized = tuple(sorted(
            rule_id.upper() for rule_id in select))
    rules = _select_rules(rules, select_normalized)

    module_names = sorted(project.modules)
    if jobs and jobs > 1 and not custom_rules:
        raw = _parallel_raw(project.root, module_names, select_normalized,
                            jobs, reuse_workers=reuse_workers)
    else:
        _prepare_capabilities(project, rules)
        raw = _raw_findings(project, rules, module_names)

    baseline = load_baseline(baseline_path)
    matched_fingerprints = set()
    result = AnalysisResult(
        modules_scanned=len(project.modules), rules_run=len(rules))

    for finding in raw:
        if finding.suppressed:
            result.suppressed.append(finding)
        elif finding.fingerprint in baseline:
            finding.baselined = True
            matched_fingerprints.add(finding.fingerprint)
            result.baselined.append(finding)
        else:
            result.findings.append(finding)

    result.stale_baseline = [
        entry for fingerprint, entry in sorted(baseline.items())
        if fingerprint not in matched_fingerprints
    ]
    result.findings.sort(key=lambda f: (f.path, f.line, f.rule_id))
    return result
