"""fidelint — static architecture & capability checking (docs/static_analysis.md).

The runtime invariants (``repro.core.invariants``) audit a *running*
host; this package proves the complementary claim over the simulator's
own source: no module outside the sanctioned layers can even *express*
a bypass — raw frame access, ungated PIT/GIT/NPT/grant mutation,
layering back-edges, stray privileged-instruction encodings.

Entry points:

* CLI: ``python -m repro.analysis`` (or the ``fidelint`` console
  script) — human or ``--format json`` output, ``--strict`` for CI,
  ``--state-report state.json`` for the module-state inventory
  artifact.
* Library / pytest: :func:`repro.analysis.analyze` returns an
  :class:`~repro.analysis.engine.AnalysisResult`; the test suite runs
  it over the live tree (``tests/analysis/``).

A finding is accepted only inline, by a ``fidelint: ignore[FIDnnn]``
comment with its reason on or above the offending line.  A
suppression that silences nothing is reported, and ``--strict`` fails
on it.
"""

from repro.analysis.engine import AnalysisResult, analyze, findings_digest
from repro.analysis.findings import Finding, Severity
from repro.analysis.project import ModuleInfo, Project
from repro.analysis.registry import Rule, all_rules, get_rule, rule

__all__ = [
    "AnalysisResult", "Finding", "ModuleInfo", "Project", "Rule",
    "Severity", "all_rules", "analyze", "findings_digest", "get_rule",
    "rule",
]
