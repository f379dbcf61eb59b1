"""End-to-end benchmark of the Fidelius simulator: four closed-loop
workloads, end-to-end metrics on the host clock, per-layer metrics from
a traced run.

    python3 e2ebench/run.py                         # every workload
    python3 e2ebench/run.py --workload guest_compute --seed 3 \\
        --seconds 10 --trace 0

Run from the repository root; the simulator is imported from ``src/``.
One workload per process: ``--workload all`` starts a fresh interpreter
per workload so process-global caches and the heap never carry over.
The last line of a single-workload run is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the run exits
non-zero when an output check fails.  Details (set-up times, tail
percentile, sim window, spans) go to ``e2ebench/out/``.  See
``e2ebench/WORKLOADS.md`` for what each workload exercises.
"""

import argparse
import importlib
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
NAMES = ("paper_figures", "tenant_lifecycle", "guest_compute",
         "fleet_campaign")

#: imported before the first set-up so setup_s excludes import time
PRELOAD = (
    "repro.system", "repro.cloud", "repro.core.migration",
    "repro.core.invariants", "repro.workloads.guestprogs",
    "repro.eval.macro", "repro.eval.sensitivity", "repro.eval.security",
    "repro.eval.fleetbench", "repro.fleet",
)


def _parser():
    parser = argparse.ArgumentParser(
        prog="python3 e2ebench/run.py",
        description="Closed-loop end-to-end benchmark of the simulator.")
    parser.add_argument("--workload", choices=NAMES + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=0,
                        help="generates every workload input "
                             "(default %(default)s)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured time per run (default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced "
                             "run instead of the end-to-end metrics")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print("e2ebench: no simulator sources under %s" % src,
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    for module in PRELOAD:
        importlib.import_module(module)
    import_s = time.perf_counter() - t0
    import loop
    import scenarios
    workload = {w.name: w for w in scenarios.WORKLOADS}[args.workload](ROOT)
    if args.trace:
        result, notes = loop.run_traced(workload, args.seed, args.seconds)
    else:
        result, notes = loop.run_end_to_end(workload, args.seed,
                                            args.seconds)
    notes["import_s"] = import_s
    notes["caches"] = workload.caches
    _write_details(args, result, notes)
    for line in _report_lines(args, result, notes):
        print(line)
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


def _write_details(args, result, notes):
    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    trace = notes.pop("trace", None)
    with open(OUT / (stem + ".json"), "w") as fh:
        json.dump({"args": vars(args), "result": result, "notes": notes},
                  fh, indent=1, sort_keys=True, default=repr)
    if trace is not None:
        with open(OUT / (stem + ".spans.json"), "w") as fh:
            json.dump(trace, fh, separators=(",", ":"))


def _report_lines(args, result, notes):
    yield "workload %s seed %d trace %d" % (args.workload, args.seed,
                                           args.trace)
    for name, metric in result["metrics"].items():
        yield "  %-36s %16.6f %s" % (name, metric["value"], metric["unit"])
    if "latency_tail" in notes:
        tail = notes["latency_tail"]
        yield "  latency_tail_ms is p%g of %d samples (%d beyond it)" % (
            tail["percentile"], tail["samples"], tail["beyond"])
    if "probe" in notes:
        yield "  host times above are at the speed probe's reference " \
              "speed; its kernel ran %.2fx that; unscaled:" % (
                  notes["probe"]["median_ratio"])
        for name, value in sorted(notes["unscaled"].items()):
            yield "    %-34s %16.6f" % (name, value)
    for name, reason in sorted(notes.get("missing", {}).items()):
        yield "  MISSING %s: %s" % (name, reason)
    if "dominant_layer" in notes:
        yield "  dominant self-time layer: %s (predicted from %s: %s)" % (
            notes["dominant_layer"], ", ".join(notes["predicted_spans"]),
            "met" if notes["prediction_met"] else "NOT met")
    cycles = notes.get("sim_cycles_per_op")
    if cycles is not None:
        yield "  sim_cycles_per_op %r cycles" % cycles
    elif "sim.cycles_per_op" not in notes["missing"]:
        yield "  sim_cycles_per_op n/a (no CycleCounter in this workload)"
    yield "  sim_digest %s" % notes["sim_digest"]
    yield "  checks: %s" % ("ok" if result["correct"] else "FAILED")
    for problem in result["problems"]:
        yield "  PROBLEM %s" % problem


def run_all(args):
    """Every workload in its own interpreter; prints each one's metrics
    and fails when any of them fails."""
    status = 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print("  %s exited with %d" % (name, proc.returncode))
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
