"""One-shot reproduction report: every experiment, paper vs measured,
as a single Markdown document.

``python -m repro.eval report`` prints it.  The committed copy is
``docs/REPORT.md``; ``tests/eval/test_report.py`` keeps the two equal.
"""

from repro.eval.ablations import (
    es_shadow_costs,
    io_encoder_throughput,
    npt_sweep_costs,
    vmcb_accesses_per_hypercall,
)
from repro.eval.fio_table import run_table3
from repro.eval.macro import average_overheads, run_figure
from repro.eval.micro import (
    crypto_copy_benchmark,
    gate_cost_benchmark,
    shadow_cost_benchmark,
)

PAPER_FIG5 = {"fidelius_avg": 0.88, "enc_avg": 5.38,
              "mcf": 17.3, "omnetpp": 16.3}
PAPER_FIG6 = {"fidelius_avg": 0.43, "enc_avg": 1.97, "canneal": 14.27}
PAPER_TABLE3 = {"rand-read": 1.38, "seq-read": 22.91,
                "rand-write": 0.70, "seq-write": 3.61}
PAPER_MICRO = {"gate1": 306, "gate2": 16, "gate3": 339,
               "shadow": 661, "aesni_pct": 11.49, "sev_pct": 8.69}


def _figure_section(title, figure, paper_avgs, highlight):
    results = run_figure(figure)
    fid_avg, enc_avg = average_overheads(results)
    lines = ["## %s" % title, "",
             "| benchmark | Fidelius (%) | Fidelius-enc (%) |",
             "|---|---|---|"]
    for r in results:
        marker = " **" if r.name in highlight else " "
        lines.append("|%s%s%s | %.2f | %.2f |" % (
            marker.strip(), r.name, marker.strip(),
            r.fidelius_overhead_pct, r.fidelius_enc_overhead_pct))
    lines.append("| **average** | **%.2f** (paper %.2f) | **%.2f** "
                 "(paper %.2f) |" % (fid_avg, paper_avgs[0],
                                     enc_avg, paper_avgs[1]))
    lines.append("")
    return lines, results


def generate_report():
    """Assemble the Markdown report; returns it as a string."""
    lines = ["# Fidelius reproduction report", "",
             "Auto-generated by `python -m repro.eval report`.", ""]

    fig5_lines, fig5 = _figure_section(
        "Figure 5 — SPECCPU 2006",
        "fig5", (PAPER_FIG5["fidelius_avg"], PAPER_FIG5["enc_avg"]),
        highlight={"mcf", "omnetpp"})
    lines += fig5_lines
    fig6_lines, fig6 = _figure_section(
        "Figure 6 — PARSEC",
        "fig6", (PAPER_FIG6["fidelius_avg"], PAPER_FIG6["enc_avg"]),
        highlight={"canneal"})
    lines += fig6_lines

    lines += ["## Table 3 — fio", "",
              "| operation | paper slowdown | measured |", "|---|---|---|"]
    for row in run_table3():
        lines.append("| %s | %.2f%% | %.2f%% |" % (
            row.name, PAPER_TABLE3[row.name], row.slowdown_pct))
    lines.append("")

    gates = gate_cost_benchmark(iterations=200)
    shadow = shadow_cost_benchmark(iterations=100)
    crypto = crypto_copy_benchmark(megabytes=64)
    lines += [
        "## Micro benchmarks", "",
        "| quantity | paper | measured |", "|---|---|---|",
        "| type 1 gate | %d | %.1f |" % (PAPER_MICRO["gate1"],
                                         gates.type1_cycles),
        "| type 2 gate | %d | %.1f |" % (PAPER_MICRO["gate2"],
                                         gates.type2_cycles),
        "| type 3 gate | %d | %.1f |" % (PAPER_MICRO["gate3"],
                                         gates.type3_cycles),
        "| shadow round trip | %d | %.1f |" % (PAPER_MICRO["shadow"],
                                               shadow.shadow_check_cycles),
        "| AES-NI copy slowdown | %.2f%% | %.2f%% |" % (
            PAPER_MICRO["aesni_pct"], crypto.aesni_slowdown_pct),
        "| SEV engine copy slowdown | %.2f%% | %.2f%% |" % (
            PAPER_MICRO["sev_pct"], crypto.sev_engine_slowdown_pct),
        "| software crypto | >20x | %.1fx |" % crypto.software_slowdown_x,
        "",
    ]
    lines += _ablation_section(gates, shadow)

    from repro.attacks import analyze_xsa
    stats = analyze_xsa()
    lines += [
        "## XSA analysis (Section 6.2)", "",
        "%d advisories, %d hypervisor-related; thwarted: %d privilege "
        "escalations (%.1f%%), %d information leaks (%.1f%%)." % (
            stats["total"], stats["hypervisor_related"],
            stats["privilege_escalation_thwarted"],
            stats["privilege_escalation_pct"],
            stats["info_leak_thwarted"], stats["info_leak_pct"]),
        "",
    ]

    checks = _shape_checks(fig5, fig6)
    lines += ["## Shape verdicts", ""]
    lines += ["- [%s] %s" % ("x" if ok else " ", label)
              for label, ok in checks]
    lines.append("")
    return "\n".join(lines)


def _ablation_section(gates, shadow):
    """A1-A5 of DESIGN.md; A1 reuses the gate micro benchmark."""
    accesses = vmcb_accesses_per_hypercall()
    prepopulated = npt_sweep_costs(lazy_npt=False)
    lazy = npt_sweep_costs(lazy_npt=True)
    encoders = io_encoder_throughput()
    es_hardware = es_shadow_costs()
    saved = shadow.protected_roundtrip_cycles \
        - es_hardware.protected_roundtrip_cycles
    return [
        "## Ablations", "",
        "| ablation | compared | measured |", "|---|---|---|",
        "| A1 gate design (§4.1.3) | type 1 gate vs a CR3 switch per "
        "transition | %.0f vs %.0f cycles |" % (
            gates.type1_cycles, gates.cr3_switch_alternative_cycles),
        "| A2 VMCB protection (§5.1) | a type 1 gate per VMCB access "
        "(%d per void hypercall) vs the shadow round trip "
        "| %.0f vs %.0f cycles |" % (
            accesses, accesses * gates.type1_cycles,
            shadow.shadow_check_cycles),
        "| A3 NPT fill (§4.3.4) | prepopulated vs lazy: runtime cycles "
        "of a 128-frame write sweep (of which npt-fill) "
        "| %d (%d) vs %d (%d) |" % (
            prepopulated.runtime_cycles,
            prepopulated.runtime_npt_fill_cycles,
            lazy.runtime_cycles, lazy.runtime_npt_fill_cycles),
        "| | prepopulated vs lazy: guest build cycles | %d vs %d |" % (
            prepopulated.boot_cycles, lazy.boot_cycles),
        "| A4 I/O encoder (§7.2) | seq-read, AES-NI / SEV-API / software "
        "| %.1f / %.1f / %.1f B/kcyc |" % (
            encoders["aes-ni"], encoders["sev-api"], encoders["software"]),
        "| A5 SEV-ES hardware | void hypercall round trip, software "
        "shadowing vs ES hardware | %.0f vs %.0f cycles (%.0f saved) |" % (
            shadow.protected_roundtrip_cycles,
            es_hardware.protected_roundtrip_cycles, saved),
        "",
    ]


def _shape_checks(fig5, fig6):
    by5 = {r.name: r.fidelius_enc_overhead_pct for r in fig5}
    by6 = {r.name: r.fidelius_enc_overhead_pct for r in fig6}
    fid5_avg, enc5_avg = average_overheads(fig5)
    fid6_avg, _ = average_overheads(fig6)
    return [
        ("mcf is SPEC's worst case", by5["mcf"] == max(by5.values())),
        ("omnetpp is SPEC's runner-up",
         sorted(by5.values())[-2] == by5["omnetpp"]),
        ("canneal is PARSEC's single outlier",
         by6["canneal"] == max(by6.values())),
        ("Fidelius alone averages under 1.5% on SPEC", fid5_avg < 1.5),
        ("Fidelius alone averages under 1% on PARSEC", fid6_avg < 1.0),
    ]
