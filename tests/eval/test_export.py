"""Tests for the machine-readable experiment exports."""

import csv
import json
import os

import pytest

from repro.eval.export import (
    ARTEFACTS,
    export_all,
    figure_rows,
    micro_rows,
    table3_rows,
    to_csv,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


class TestRowProducers:
    def test_fig5_rows_schema(self):
        rows = figure_rows("fig5")
        assert rows[-1]["benchmark"] == "average"
        assert {"benchmark", "fidelius_overhead_pct",
                "fidelius_enc_overhead_pct"} <= set(rows[0])
        assert len(rows) == 12  # 11 benchmarks + average

    def test_table3_rows(self):
        rows = table3_rows()
        assert [r["operation"] for r in rows] == \
            ["rand-read", "seq-read", "rand-write", "seq-write"]
        assert all(r["slowdown_pct"] > 0 for r in rows)

    def test_micro_rows(self):
        rows = {r["quantity"]: r["value"] for r in micro_rows()}
        assert rows["gate1_cycles"] == 306
        assert rows["shadow_check_cycles"] == 661

    def test_csv_roundtrip(self):
        rows = micro_rows()
        text = to_csv(rows)
        parsed = list(csv.DictReader(text.splitlines()))
        assert len(parsed) == len(rows)
        assert parsed[0]["quantity"] == "gate1_cycles"

    def test_empty_csv(self):
        assert to_csv([]) == ""


class TestExportAll:
    def test_writes_every_artefact(self, tmp_path):
        written = export_all(str(tmp_path))
        assert len(written) == 2 * len(ARTEFACTS)
        fig5 = json.loads((tmp_path / "fig5.json").read_text())
        assert any(row["benchmark"] == "mcf" for row in fig5)
        table3 = (tmp_path / "table3.csv").read_text()
        assert "seq-read" in table3
        # e2ebench's paper_figures checks its rows against the committed
        # eval-output/; regenerate it with ``python -m repro.eval export``
        for path in written:
            name = os.path.basename(path)
            with open(os.path.join(REPO_ROOT, "eval-output", name)) as handle:
                assert handle.read() == (tmp_path / name).read_text(), name
