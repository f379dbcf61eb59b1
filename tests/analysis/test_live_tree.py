"""The committed source tree is fidelint-clean modulo the committed
baseline — the same invariant CI enforces with ``--strict``.

If this test fails you either introduced a real violation (fix it or
add a justified inline suppression) or fixed a baselined one (delete
the stale entry from ``fidelint.baseline.json``).
"""

import os

from repro.analysis import analyze

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
SRC_ROOT = os.path.join(REPO_ROOT, "src")
BASELINE = os.path.join(REPO_ROOT, "fidelint.baseline.json")


def test_live_tree_is_clean_modulo_baseline():
    result = analyze(SRC_ROOT, baseline_path=BASELINE)
    assert not result.findings, "\n".join(
        f.render() for f in result.findings)
    assert not result.stale_baseline, (
        "stale baseline entries: %r" % result.stale_baseline)
    assert result.exit_code(strict=True) == 0


def test_live_tree_scans_the_whole_package():
    result = analyze(SRC_ROOT, baseline_path=BASELINE)
    assert result.rules_run == 14
    assert result.modules_scanned >= 85


def test_baseline_entries_all_match():
    # Every baseline entry corresponds to a real current finding: the
    # grandfathered set can only shrink, never silently grow stale.
    result = analyze(SRC_ROOT, baseline_path=BASELINE)
    assert len(result.baselined) >= 1
    for finding in result.baselined:
        assert finding.rule_id == "FID001"
        assert finding.module == "repro.xen.hypervisor"
