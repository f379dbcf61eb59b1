"""The committed source tree is fidelint-clean — the same invariant CI
enforces with ``--strict``.

If this test fails you either introduced a real violation (fix it or
add a justified inline suppression) or left a suppression that no
longer silences anything (delete the comment).
"""

import os
from collections import Counter

from repro.analysis import analyze

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
SRC_ROOT = os.path.join(REPO_ROOT, "src")

#: every accepted exception in the tree, per rule: a new suppression
#: updates this table in the same change, so review sees it
SUPPRESSED_PER_RULE = {
    "FID001": 11, "FID002": 3, "FID004": 21, "FID007": 2, "FID010": 1,
}


def test_live_tree_is_clean_under_strict():
    result = analyze(SRC_ROOT)
    assert not result.findings, "\n".join(
        f.render() for f in result.findings)
    assert not result.unused_suppressions, result.unused_suppressions
    assert result.exit_code(strict=True) == 0


def test_live_tree_scans_the_whole_package():
    result = analyze(SRC_ROOT)
    assert result.rules_run == 14
    assert result.modules_scanned >= 85


def test_every_live_suppression_is_used():
    result = analyze(SRC_ROOT)
    assert not result.unused_suppressions
    assert Counter(f.rule_id for f in result.suppressed) == \
        SUPPRESSED_PER_RULE
    # FID004's exceptions are all hardware methods priced elsewhere
    assert {f.module.rsplit(".", 1)[0] for f in result.suppressed
            if f.rule_id == "FID004"} == {"repro.hw"}
