"""Each fidelint rule fires exactly once on its dedicated bad fixture.

The fixture tree under ``fixtures/fixture_src`` is a miniature ``repro``
package with one known-bad module per rule.  Every module is crafted to
trigger its own rule exactly once and no other rule at all, so the whole
tree yields exactly fourteen findings — one per rule.
"""

import os

from repro.analysis import analyze
from repro.analysis.findings import Severity

FIXTURE_ROOT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "fixtures", "fixture_src")

#: rule id -> (module that must trigger it, expected severity)
EXPECTED = {
    "FID001": ("repro.xen.bad_raw_memory", Severity.ERROR),
    "FID002": ("repro.eval.bad_gate", Severity.ERROR),
    "FID003": ("repro.hw.bad_layering", Severity.ERROR),
    "FID004": ("repro.hw.bad_cycles", Severity.WARNING),
    "FID005": ("repro.core.bad_except", Severity.WARNING),
    "FID006": ("repro.common.bad_mutable_default", Severity.WARNING),
    "FID007": ("repro.workloads.bad_determinism", Severity.ERROR),
    "FID008": ("repro.xen.bad_opcode", Severity.ERROR),
    "FID009": ("repro.xen.bad_fault_hook", Severity.ERROR),
    "FID010": ("repro.sev.bad_taint", Severity.ERROR),
    "FID011": ("repro.core.bad_gate_typestate", Severity.ERROR),
    "FID012": ("repro.hw.bad_path_cycles", Severity.WARNING),
    "FID014": ("repro.hw.bad_snapshot_state", Severity.ERROR),
    "FID015": ("repro.core.bad_entropy", Severity.ERROR),
}


def _fixture_result():
    return analyze(FIXTURE_ROOT)


def test_fixture_tree_yields_exactly_one_finding_per_rule():
    result = _fixture_result()
    by_rule = {}
    for finding in result.findings:
        by_rule.setdefault(finding.rule_id, []).append(finding)
    assert sorted(by_rule) == sorted(EXPECTED)
    for rule_id, (module, severity) in EXPECTED.items():
        findings = by_rule[rule_id]
        assert len(findings) == 1, (
            "%s fired %d times: %r" % (rule_id, len(findings), findings))
        assert findings[0].module == module
        assert findings[0].severity is severity
    assert len(result.findings) == len(EXPECTED)
    assert not result.suppressed
    assert not result.unused_suppressions


def test_fixture_tree_fails_even_without_strict():
    # Ten of the fourteen rules are errors, so plain mode already fails.
    result = _fixture_result()
    assert result.error_count == 10
    assert result.warning_count == 4
    assert result.exit_code(strict=False) == 1
    assert result.exit_code(strict=True) == 1


def test_each_rule_in_isolation_via_select():
    for rule_id, (module, _severity) in EXPECTED.items():
        result = analyze(FIXTURE_ROOT, select=[rule_id])
        assert result.rules_run == 1
        assert [f.module for f in result.findings] == [module], rule_id


def _source_line(finding):
    with open(os.path.join(FIXTURE_ROOT, finding.path),
              encoding="utf-8") as handle:
        return handle.read().splitlines()[finding.line - 1]


def test_findings_carry_line_text_and_render():
    result = _fixture_result()
    for finding in result.findings:
        assert _source_line(finding).strip(), finding.rule_id
        rendered = finding.render()
        assert finding.rule_id in rendered
        assert ":%d:" % finding.line in rendered


def test_raw_memory_names_the_offending_call():
    result = analyze(FIXTURE_ROOT, select=["FID001"])
    (finding,) = result.findings
    assert "read_frame" in _source_line(finding)


def test_opcode_rule_catches_embedded_encoding():
    # The fixture hides the MOV-CR0 encoding inside NOP filler; matching
    # must be substring-based, not whole-literal equality.
    result = analyze(FIXTURE_ROOT, select=["FID008"])
    (finding,) = result.findings
    assert finding.module == "repro.xen.bad_opcode"
