"""Command-line entry point: regenerate any of the paper's artefacts.

    python -m repro.eval fig5         # Figure 5: SPECCPU 2006
    python -m repro.eval fig6         # Figure 6: PARSEC
    python -m repro.eval table3       # Table 3: fio
    python -m repro.eval micro-gates  # §7.2 question 1
    python -m repro.eval micro-shadow # §7.2 question 2
    python -m repro.eval micro-crypto # §7.2 question 3
    python -m repro.eval xsa          # §6.2 XSA analysis
    python -m repro.eval attacks      # §6 attack matrix
    python -m repro.eval tables12     # Tables 1 & 2, observed
    python -m repro.eval all
"""

import argparse
import sys

from repro.eval import (
    crypto_copy_benchmark,
    gate_cost_benchmark,
    permission_matrix,
    priv_instruction_matrix,
    run_figure,
    run_table3,
    shadow_cost_benchmark,
)
from repro.eval import tables
from repro.runner import add_jobs_argument


def _fig(which, jobs):
    title = {"fig5": "Figure 5: SPECCPU 2006 normalized overhead",
             "fig6": "Figure 6: PARSEC normalized overhead"}[which]
    print(tables.format_figure(run_figure(which, jobs=jobs), title))


def _table3(_jobs):
    print(tables.format_table3(run_table3()))


def _micro_gates(_jobs):
    print(tables.format_gate_costs(gate_cost_benchmark()))


def _micro_shadow(_jobs):
    print(tables.format_shadow_costs(shadow_cost_benchmark()))


def _micro_crypto(_jobs):
    print(tables.format_crypto_costs(crypto_copy_benchmark()))


def _xsa(_jobs):
    from repro.attacks import analyze_xsa
    print(tables.format_xsa(analyze_xsa()))


def _attacks(jobs):
    from repro.attacks import format_matrix, run_matrix
    print(format_matrix(run_matrix(jobs=jobs)))


def _tables12(_jobs):
    print(tables.format_permission_matrix(permission_matrix()))
    print()
    print(tables.format_instruction_matrix(priv_instruction_matrix()))


def _sensitivity(jobs):
    from repro.eval.sensitivity import (
        encryption_latency_sweep,
        exit_rate_sweep,
        format_exit_rate_sweep,
        format_latency_sweep,
    )
    print(format_latency_sweep(encryption_latency_sweep(jobs=jobs)))
    print()
    print(format_exit_rate_sweep(exit_rate_sweep(jobs=jobs)))


def _report(_jobs):
    from repro.eval.report import generate_report
    print(generate_report())


def _functional(_jobs):
    from repro.eval.functional import format_functional, run_functional
    print(format_functional(run_functional()))


def _export(_jobs):
    from repro.eval.export import export_all
    for path in export_all("eval-output"):
        print("wrote", path)


#: every command takes the ``--jobs`` value; fig5, fig6, attacks and
#: sensitivity shard their independent work units across it
COMMANDS = {
    "fig5": lambda jobs: _fig("fig5", jobs),
    "fig6": lambda jobs: _fig("fig6", jobs),
    "table3": _table3,
    "micro-gates": _micro_gates,
    "micro-shadow": _micro_shadow,
    "micro-crypto": _micro_crypto,
    "xsa": _xsa,
    "attacks": _attacks,
    "tables12": _tables12,
    "sensitivity": _sensitivity,
    "report": _report,
    "functional": _functional,
    "export": _export,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("experiment", choices=list(COMMANDS) + ["all"])
    add_jobs_argument(parser)
    args = parser.parse_args(argv)
    if args.experiment == "all":
        for name in COMMANDS:
            print("=" * 72)
            COMMANDS[name](args.jobs)
            print()
        return 0
    COMMANDS[args.experiment](args.jobs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
