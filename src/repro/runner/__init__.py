"""Parallel execution with a deterministic merge.

Everything above one :class:`~repro.system.System` — the chaos soak's
seed sweep, the eval figure suites, the attack matrix, the sensitivity
sweeps, the perfbench suite, the fleet campaign's regions — is a list
of shared-nothing simulations.  This package runs such a list of
:class:`WorkUnit`\\ s either serially in-process or on a persistent
worker pool (``--jobs N`` on every CLI it backs) while guaranteeing
that the *aggregated output is byte-identical to the serial run*:
results are re-sorted into submission order before merging, and
:mod:`repro.runner.merge` provides the canonical digests that tests
and CI compare.

Layering: the runner sits beside ``repro.hw`` at the bottom of the
stack — it knows nothing about guests, fleets, attacks or checkpoints.
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
from repro.runner.merge import canonical, deterministic_digest, digest
from repro.runner.plan import WorkUnit

__all__ = [
    "RunnerError",
    "RunReport",
    "ShardResult",
    "WorkUnit",
    "canonical",
    "deterministic_digest",
    "digest",
    "execute",
]


def _job_count(text):
    """argparse type for ``--jobs``: an integer of at least 1."""
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(
            "expected an integer of at least 1, got %r" % (text,))
    return jobs


def add_jobs_argument(parser, default=1):
    """The shared ``--jobs`` flag every runner-backed CLI exposes."""
    parser.add_argument(
        "--jobs", type=_job_count, default=default, metavar="N",
        help="worker processes for independent work units "
             "(default %(default)s: serial, deterministic-tooling "
             "friendly; results are byte-identical either way)")
    return parser
