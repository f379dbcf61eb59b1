"""Fault-window bisection: shrink a failing soak seed to a minimal window.

A failing chaos-soak seed fires some number of fault events; usually
only a contiguous handful of them actually matter.  This module binary-
searches that window: re-run the scenario with a
:class:`~repro.faults.inject.FireWindow` admitting only firings
``[skip, limit)`` — suppressed firings still consume budgets and RNG
draws, so the trigger schedule is identical in every trial — and
narrow ``limit`` down, then ``skip`` up, until the predicate is pinned
to the smallest window that still reproduces it.

The result is a ``fidelius-bisect/2`` artifact: seed, predicate,
scenario parameters, the window and the admitted fault events — a
minimal repro recipe that ``run_scenario(seed, window=FireWindow(skip,
limit), **params)`` replays.
"""

import json
import sys

from repro.common.errors import ReproError
from repro.faults.inject import FireWindow
from repro.faults.soak import atomic_write, run_scenario
from repro.runner import int_at_least

#: Artifact format version.
ARTIFACT_SCHEMA = "fidelius-bisect/2"


def failed_op_name(predicate):
    """The op a ``failed-op:<name>`` predicate names; None for
    ``violations``.  Any other predicate raises :class:`ReproError`."""
    if predicate == "violations":
        return None
    if predicate.startswith("failed-op:"):
        return predicate[len("failed-op:"):]
    raise ReproError("unknown bisect predicate %r: expected 'violations' "
                     "or 'failed-op:<name>'" % predicate)


def predicate_holds(predicate, result):
    """Does ``result`` exhibit the failure being bisected?

    ``violations`` — any property violation; ``failed-op:<name>`` — the
    named workload op raised (useful for pinning down which fault made
    an operation fail cleanly when the run is otherwise violation-free).
    """
    name = failed_op_name(predicate)
    if name is None:
        return bool(result.violations)
    return any(op == name for op, _ in result.failed_ops)


def bisect_fault_window(seed, predicate="violations", **scenario_kwargs):
    """Find the minimal fault-event window reproducing ``predicate``.

    Returns the artifact dict.  Binary search assumes the usual
    monotone case (more admitted faults == at least as broken);
    whatever it converges to is then *verified* to reproduce before an
    artifact is emitted, so a non-monotone schedule can fail the
    bisection but never yield a false artifact.
    """
    failed_op_name(predicate)     # refuse an unknown predicate up front
    trials = 0

    def trial(skip, limit):
        nonlocal trials
        trials += 1
        result = run_scenario(seed, window=FireWindow(skip, limit),
                              **scenario_kwargs)
        return predicate_holds(predicate, result)

    baseline = run_scenario(seed, **scenario_kwargs)
    if not predicate_holds(predicate, baseline):
        raise ReproError(
            "predicate %r does not hold on seed %d without a window: "
            "nothing to bisect" % (predicate, seed))
    total = len(baseline.schedule.splitlines())

    # Smallest limit whose prefix window [0, limit) still reproduces.
    lo, hi = 0, total
    while lo < hi:
        mid = (lo + hi) // 2
        if trial(0, mid):
            hi = mid
        else:
            lo = mid + 1
    limit = lo
    # Largest skip for which [skip, limit) still reproduces.
    lo, hi = 0, limit
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if trial(mid, limit):
            lo = mid
        else:
            hi = mid - 1
    skip = lo

    # Verification run: the found window must reproduce.
    result = run_scenario(seed, window=FireWindow(skip, limit),
                          **scenario_kwargs)
    if not predicate_holds(predicate, result):
        raise ReproError(
            "bisected window [%d, %d) does not reproduce %r: the fault "
            "schedule is not monotone under windowing; bisect by hand "
            "from the full schedule" % (skip, limit, predicate))

    return {
        "schema": ARTIFACT_SCHEMA,
        "seed": seed,
        "predicate": predicate,
        "params": dict(scenario_kwargs),
        "total_events": total,
        "window": {"skip": skip, "limit": limit},
        "events": result.schedule.decode().splitlines(),
        "trials": trials,
    }


def write_artifact(artifact, path):
    """Persist a bisect artifact as canonical JSON (atomically)."""
    payload = (json.dumps(artifact, sort_keys=True, indent=1)
               + "\n").encode()
    atomic_write(path, payload)


def _refuse(parser, exc, status):
    print("%s: error: %s" % (parser.prog, exc), file=sys.stderr)
    return status


def main(argv=None):
    import argparse
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults.bisect",
        description="binary-search a failing soak seed down to a "
                    "minimal fault-window repro")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--predicate", default="violations",
                        help="'violations' or 'failed-op:<name>' "
                             "(default %(default)s)")
    parser.add_argument("--hosts", type=int_at_least(1), default=3)
    parser.add_argument("--tenants", type=int_at_least(1), default=2)
    parser.add_argument("--nfaults", type=int_at_least(0), default=4)
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write the artifact JSON here")
    args = parser.parse_args(argv)
    try:
        failed_op_name(args.predicate)
    except ReproError as exc:
        return _refuse(parser, exc, 2)
    try:
        artifact = bisect_fault_window(
            args.seed, predicate=args.predicate,
            hosts=args.hosts, tenants=args.tenants, nfaults=args.nfaults)
    except ReproError as exc:
        return _refuse(parser, exc, 1)
    print("seed=%d predicate=%s window=[%d,%d) of %d events, %d trials"
          % (artifact["seed"], artifact["predicate"],
             artifact["window"]["skip"], artifact["window"]["limit"],
             artifact["total_events"], artifact["trials"]))
    for line in artifact["events"]:
        print("  " + line)
    if args.out:
        write_artifact(artifact, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
