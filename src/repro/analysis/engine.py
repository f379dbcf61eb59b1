"""The fidelint engine: load, run rules, fold in suppressions + baseline.

Every selected rule runs over every module in sorted order; each raw
finding gets its line text, suppression flag and occurrence counter
(the fingerprint disambiguator, keyed per ``(rule, module, line
text)``), and the stream is then folded through the baseline and
sorted.
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


def _raw_findings(project, rules):
    """Raw findings over every module, in deterministic order, with
    line text, occurrence counter and suppression flag resolved."""
    raw = []
    occurrences = Counter()
    for name in sorted(project.modules):
        module = project.modules[name]
        for rule_obj in rules:
            for finding in rule_obj.run(module, project):
                finding.line_text = module.line_text(finding.line)
                finding.suppressed = module.is_suppressed(
                    finding.rule_id, finding.line)
                key = (finding.rule_id, finding.module, finding.line_text)
                finding.occurrence = occurrences[key]
                occurrences[key] += 1
                raw.append(finding)
    return raw


def analyze(root, rules=None, baseline_path=None, select=None):
    """Analyze the tree under ``root`` and return an AnalysisResult.

    ``select`` limits the run to an iterable of rule ids;
    ``baseline_path`` points at the committed baseline (None = none).
    A baseline entry is stale only when its rule ran and matched
    nothing, so a ``select`` run never condemns another rule's entries.
    """
    project = root if isinstance(root, Project) else Project.load(root)
    rules = _select_rules(all_rules() if rules is None else rules, select)
    raw = _raw_findings(project, rules)

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

    ran = {r.rule_id for r in rules}
    result.stale_baseline = [
        entry for fingerprint, entry in sorted(baseline.items())
        if fingerprint not in matched_fingerprints and entry["rule"] in ran
    ]
    result.findings.sort(key=lambda f: (f.path, f.line, f.rule_id))
    return result
