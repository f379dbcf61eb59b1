"""Machine-readable exports of every experiment (JSON and CSV).

``python -m repro.eval export`` writes one file per artefact into
``./eval-output`` so external plotting pipelines (gnuplot, pandas, a
spreadsheet) can regenerate the paper's figures from the measured data;
``export_all(directory)`` writes them anywhere else.
"""

import csv
import io
import json

from repro.eval.fio_table import run_table3
from repro.eval.macro import average_overheads, run_figure
from repro.eval.micro import (
    crypto_copy_benchmark,
    gate_cost_benchmark,
    shadow_cost_benchmark,
)


def figure_rows(figure):
    results = run_figure(figure)
    rows = [
        {
            "benchmark": r.name,
            "fidelius_overhead_pct": round(r.fidelius_overhead_pct, 4),
            "fidelius_enc_overhead_pct":
                round(r.fidelius_enc_overhead_pct, 4),
            "measured_misses": r.measured_misses,
            "accesses": r.accesses,
        }
        for r in results
    ]
    fid_avg, enc_avg = average_overheads(results)
    rows.append({
        "benchmark": "average",
        "fidelius_overhead_pct": round(fid_avg, 4),
        "fidelius_enc_overhead_pct": round(enc_avg, 4),
        "measured_misses": "",
        "accesses": "",
    })
    return rows


def table3_rows():
    return [
        {
            "operation": r.name,
            "xen_throughput": round(r.xen_throughput, 4),
            "fidelius_throughput": round(r.fidelius_throughput, 4),
            "slowdown_pct": round(r.slowdown_pct, 4),
        }
        for r in run_table3()
    ]


def micro_rows():
    gates = gate_cost_benchmark(iterations=200)
    shadow = shadow_cost_benchmark(iterations=100)
    crypto = crypto_copy_benchmark(megabytes=64)
    return [
        {"quantity": "gate1_cycles", "value": gates.type1_cycles},
        {"quantity": "gate2_cycles", "value": gates.type2_cycles},
        {"quantity": "gate3_cycles", "value": gates.type3_cycles},
        {"quantity": "tlb_flush_cycles",
         "value": gates.type3_tlb_flush_cycles},
        {"quantity": "shadow_check_cycles",
         "value": shadow.shadow_check_cycles},
        {"quantity": "aesni_copy_slowdown_pct",
         "value": round(crypto.aesni_slowdown_pct, 4)},
        {"quantity": "sev_copy_slowdown_pct",
         "value": round(crypto.sev_engine_slowdown_pct, 4)},
        {"quantity": "software_copy_slowdown_x",
         "value": round(crypto.software_slowdown_x, 4)},
    ]


def to_csv(rows):
    """Rows (list of dicts with a shared schema) as CSV text."""
    if not rows:
        return ""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


ARTEFACTS = {
    "fig5": lambda: figure_rows("fig5"),
    "fig6": lambda: figure_rows("fig6"),
    "table3": table3_rows,
    "micro": micro_rows,
}


def export_all(directory):
    """Write every artefact as both .json and .csv; returns the paths."""
    import os
    os.makedirs(directory, exist_ok=True)
    written = []
    for name, producer in ARTEFACTS.items():
        rows = producer()
        json_path = os.path.join(directory, "%s.json" % name)
        with open(json_path, "w") as handle:
            json.dump(rows, handle, indent=2)
        csv_path = os.path.join(directory, "%s.csv" % name)
        with open(csv_path, "w") as handle:
            handle.write(to_csv(rows))
        written += [json_path, csv_path]
    return written
