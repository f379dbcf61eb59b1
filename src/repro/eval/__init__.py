"""The evaluation harness: regenerates every table and figure of the
paper's Sections 6 and 7.

Run ``python -m repro.eval all`` (or a single experiment id — see
``python -m repro.eval --help``).  The same entry points back the
shape tests under ``tests/eval/``, and ``python -m repro.eval report``
prints every artefact, paper vs measured, plus the design ablations.
"""

from repro.eval.macro import MacroResult, average_overheads, run_figure
from repro.eval.micro import (
    crypto_copy_benchmark,
    gate_cost_benchmark,
    shadow_cost_benchmark,
)
from repro.eval.fio_table import Table3Row, run_table3
from repro.eval.security import permission_matrix, priv_instruction_matrix

__all__ = [
    "MacroResult",
    "run_figure",
    "average_overheads",
    "gate_cost_benchmark",
    "shadow_cost_benchmark",
    "crypto_copy_benchmark",
    "Table3Row",
    "run_table3",
    "permission_matrix",
    "priv_instruction_matrix",
]
