"""Parallel execution with a deterministic merge.

Everything above one :class:`~repro.system.System` — the chaos soak's
seed sweep, the eval figure suites, the attack matrix, the sensitivity
sweeps, the fleet campaign's regions — is a list of shared-nothing
simulations.  This package runs such a list of :class:`WorkUnit`\\ s
either serially in-process or on a persistent worker pool
(``--jobs N`` on every CLI it backs) while guaranteeing that the
*aggregated output is byte-identical to the serial run*: results are
re-sorted into submission order before merging, and
:mod:`repro.runner.merge` provides the canonical digests that tests
and CI compare.

Layering: the runner sits beside ``repro.hw`` at the bottom of the
stack — it knows nothing about guests, fleets, attacks or faults.
Callers hand it module-level functions and picklable arguments; it
hands back their results in a deterministic order, plus wall-clock
counters for bench artifacts.
"""

import argparse

from repro.runner.executor import (
    RunnerError,
    RunReport,
    ShardResult,
    execute,
)
from repro.runner.merge import deterministic_digest, digest
from repro.runner.plan import WorkUnit

__all__ = [
    "RunnerError",
    "RunReport",
    "ShardResult",
    "WorkUnit",
    "deterministic_digest",
    "digest",
    "execute",
]


def int_at_least(minimum):
    """argparse type for a count flag: an integer of at least
    ``minimum``; anything else is a usage error (exit 2)."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(
                "expected an integer of at least %d, got %r"
                % (minimum, text))
        return value
    return parse


def add_jobs_argument(parser, default=1):
    """The shared ``--jobs`` flag every runner-backed CLI exposes."""
    parser.add_argument(
        "--jobs", type=int_at_least(1), default=default, metavar="N",
        help="worker processes for independent work units "
             "(default %(default)s: serial, deterministic-tooling "
             "friendly; results are byte-identical either way)")
    return parser
