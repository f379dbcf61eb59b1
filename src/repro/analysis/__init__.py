"""fidelint — static architecture & capability checking (docs/static_analysis.md).

The runtime invariants (``repro.core.invariants``) audit a *running*
host; this package proves the complementary claim over the simulator's
own source: no module outside the sanctioned layers can even *express*
a bypass — raw frame access, ungated PIT/GIT/NPT/grant mutation,
layering back-edges, stray privileged-instruction encodings.

Entry points:

* CLI: ``python -m repro.analysis`` (or the ``fidelint`` console
  script) — human or ``--format json`` output, ``--strict`` for CI,
  ``--jobs N`` to shard the run through ``repro.runner`` (digest
  byte-identical to serial), ``--state-report state.json`` for the
  module-state inventory artifact.
* Library / pytest: :func:`repro.analysis.analyze` returns an
  :class:`~repro.analysis.engine.AnalysisResult`; the test suite runs
  it over the live tree (``tests/analysis/``).

Findings are silenced either inline (``# fidelint: ignore[FID001]``
with a justification) or by the committed baseline file
(``fidelint.baseline.json``) for grandfathered debt.
"""

from repro.analysis.baseline import default_baseline_path, load_baseline, \
    write_baseline
from repro.analysis.engine import AnalysisResult, analyze, findings_digest
from repro.analysis.findings import Finding, Severity
from repro.analysis.project import ModuleInfo, Project
from repro.analysis.registry import Rule, all_rules, get_rule, rule

__all__ = [
    "AnalysisResult", "Finding", "ModuleInfo", "Project", "Rule",
    "Severity", "all_rules", "analyze", "default_baseline_path",
    "findings_digest", "get_rule", "load_baseline", "rule",
    "write_baseline",
]
