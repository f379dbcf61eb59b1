#!/usr/bin/env python3
"""Performance tour: regenerate every Section 7 artefact in one run.

Prints Figure 5, Figure 6, Table 3 and the three micro benchmarks,
then compares the three I/O protection paths on the worst-case job —
the paper's whole evaluation story in under a minute.
"""

from repro.eval import (
    crypto_copy_benchmark,
    gate_cost_benchmark,
    run_figure,
    run_table3,
    shadow_cost_benchmark,
)
from repro.eval.tables import (
    format_crypto_costs,
    format_figure,
    format_gate_costs,
    format_shadow_costs,
    format_table3,
)


def io_path_shootout():
    """AES-NI vs SEV-API vs software on the seq-read job (ablation A4)."""
    from repro.eval.ablations import io_encoder_throughput

    lines = ["I/O path shootout (seq-read, bytes per kilocycle):"]
    for kind, throughput in io_encoder_throughput().items():
        lines.append("  %-9s %10.1f" % (kind, throughput))
    return "\n".join(lines)


def main():
    print(format_figure(run_figure("fig5"), "Figure 5: SPECCPU 2006"))
    print()
    print(format_figure(run_figure("fig6"), "Figure 6: PARSEC"))
    print()
    print(format_table3(run_table3()))
    print()
    print(format_gate_costs(gate_cost_benchmark(iterations=300)))
    print()
    print(format_shadow_costs(shadow_cost_benchmark(iterations=150)))
    print()
    print(format_crypto_costs(crypto_copy_benchmark(megabytes=512)))
    print()
    print(io_path_shootout())


if __name__ == "__main__":
    main()
