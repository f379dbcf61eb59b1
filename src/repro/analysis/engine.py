"""The fidelint engine: load, run rules, fold in suppressions.

Every selected rule runs over every module in sorted order; each
finding is checked against the module's inline suppressions, and each
suppression that silenced a finding is marked used.  A suppression
that silenced nothing for a rule that ran, or that names a rule no one
registered, is *unused*: reported always, and a failure under
``--strict``, so the audit trail of accepted exceptions cannot rot.
"""

from dataclasses import dataclass, field

from repro.analysis.findings import Severity
from repro.analysis.project import Project
from repro.analysis.registry import all_rules


@dataclass
class AnalysisResult:
    """Everything one analyzer run produced."""

    findings: list = field(default_factory=list)      # active (fail-worthy)
    suppressed: list = field(default_factory=list)    # inline-ignored
    #: suppressions that silenced nothing, as rule/module/path/line dicts
    unused_suppressions: list = field(default_factory=list)
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
        warnings and on unused suppressions."""
        if self.error_count:
            return 1
        if strict and (self.warning_count or self.unused_suppressions):
            return 1
        return 0

    def to_dict(self):
        return {
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [f.to_dict() for f in self.suppressed],
            "unused_suppressions": list(self.unused_suppressions),
            "counts": {
                "error": self.error_count,
                "warning": self.warning_count,
                "suppressed": len(self.suppressed),
                "unused_suppressions": len(self.unused_suppressions),
                "modules": self.modules_scanned,
                "rules": self.rules_run,
            },
        }


def findings_digest(result):
    """Canonical SHA-256 over the full result dict — one line that
    says whether two runs reported the same thing."""
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


def _run_rules(project, rules):
    """Every finding over every module, in deterministic order, with
    its suppression flag resolved; plus the ``(module, comment line,
    rule id)`` of every suppression that silenced one."""
    findings, used = [], set()
    for name in sorted(project.modules):
        module = project.modules[name]
        for rule_obj in rules:
            for finding in rule_obj.run(module, project):
                line = module.suppression_line(finding.rule_id, finding.line)
                finding.suppressed = line is not None
                if finding.suppressed:
                    used.add((name, line, finding.rule_id))
                findings.append(finding)
    return findings, used


def _unused_suppressions(project, judged, registered, used):
    """Suppressions of a rule in ``judged`` that silenced nothing, and
    those naming no registered rule, which can never silence anything."""
    unused = []
    for name in sorted(project.modules):
        module = project.modules[name]
        for line, rule_ids in sorted(module.suppressions.items()):
            for rule_id in sorted(rule_ids):
                if (rule_id in judged or rule_id not in registered) and \
                        (name, line, rule_id) not in used:
                    unused.append({"rule": rule_id, "module": name,
                                   "path": module.rel_path, "line": line})
    return unused


def analyze(root, select=None):
    """Analyze the tree under ``root`` and return an AnalysisResult.

    ``select`` limits the run to an iterable of rule ids.  A
    suppression is judged only when its rule ran, so a ``select`` run
    never condemns another rule's suppressions.
    """
    project = root if isinstance(root, Project) else Project.load(root)
    registered = all_rules()
    rules = _select_rules(registered, select)
    findings, used = _run_rules(project, rules)
    result = AnalysisResult(
        modules_scanned=len(project.modules), rules_run=len(rules),
        unused_suppressions=_unused_suppressions(
            project, {r.rule_id for r in rules},
            {r.rule_id for r in registered}, used))
    for finding in findings:
        if finding.suppressed:
            result.suppressed.append(finding)
        else:
            result.findings.append(finding)
    result.findings.sort(key=lambda f: (f.path, f.line, f.rule_id))
    return result
