"""Tests for the one-shot reproduction report."""

import os

import pytest

from repro.eval.report import generate_report

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


@pytest.fixture(scope="module")
def report():
    return generate_report()


class TestReport:
    def test_contains_all_sections(self, report):
        for heading in ("Figure 5", "Figure 6", "Table 3",
                        "Micro benchmarks", "Ablations", "XSA analysis",
                        "Shape verdicts"):
            assert heading in report

    def test_all_shape_verdicts_pass(self, report):
        assert "- [ ]" not in report

    def test_key_rows_present(self, report):
        assert "mcf" in report
        assert "canneal" in report
        assert "seq-read" in report
        assert "177 hypervisor-related" in report

    def test_is_markdown_table_formatted(self, report):
        assert report.count("|---|") >= 4

    def test_committed_copy_is_current(self, report):
        """Regenerate with ``python -m repro.eval report > docs/REPORT.md``."""
        with open(os.path.join(REPO_ROOT, "docs", "REPORT.md")) as handle:
            assert handle.read() == report + "\n"
