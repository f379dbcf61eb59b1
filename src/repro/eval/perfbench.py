"""Wall-clock benchmarks for the simulator's fast data path.

Everything else under ``repro.eval`` measures the *modelled* machine in
cycles; this module measures the *simulator itself* in seconds.  The
PR-4 data-path rework (keystream midstates and line cache, wide-XOR
line crypto, span-batched multi-line transfers, the LRU TLB with its
per-root flush index) is constrained to leave cycle ledgers and
functional outputs bit-identical — so the only observable it is allowed
to move is wall-clock, and this is the instrument that watches it.

Four benchmarks, each warmup + repeat + median:

* ``keystream``   — ``crypto.keystream`` against the kept-verbatim
  ``crypto._reference_keystream`` oracle;
* ``enc_rw_mix``  — a randomized encrypted read/write mix driven
  through :class:`MemoryController` and its kept-simple twin
  :class:`ReferenceMemoryController`, equal cycles and DRAM asserted;
* ``walker_tlb``  — page-table-walk + TLB churn across several roots
  with periodic ``flush_root`` storms (throughput + TLB counters);
* ``guest_macro`` — a :class:`CryptoWorker` guest workload on two
  booted systems, optimized vs ``reference_datapath=True``, equal
  digests and cycle deltas asserted.

``python -m repro.eval.perfbench --json`` writes ``BENCH_simulator.json``
(schema ``fidelius-perfbench/3``) with per-benchmark timings/speedups,
the optimized machine's :meth:`Machine.perf_stats` counters, and a
``sharding`` section (host CPU count, ``--jobs`` used, executor mode,
spawn vs transport vs compute breakdown, per-benchmark wall-clock and
utilization from :mod:`repro.runner`), so ``BENCH_*`` trajectories
stay comparable across machines.  With ``--jobs N`` the four
benchmarks run on the runner's persistent worker pool, and every
deterministic field (cycle totals, digests, equivalence flags) is
byte-identical to the serial run; :func:`deterministic_digest` is the
comparison key.  ``--only NAME`` restricts the run to named
benchmarks (the CI perf-regression gate uses it to re-time
``guest_macro`` at full size without paying for the whole suite).

Schema /3 changes vs /2: ``guest_macro`` drives the span-batched
:class:`CryptoWorker` on both data paths (two ``GuestContext.batch``
calls per round instead of two Python calls per page), per-bench
``keystream_cache`` sections are delta snapshots captured around each
bench's own run (the /2 ``enc_rw_mix`` section read a cache the
reference runs had already cleared, reporting zeros), and the
``sharding`` section gained the executor-mode/spawn/transport/compute
breakdown.
"""

import argparse
import json
import os
import random
import statistics
import sys
# fidelint: ignore[FID007] -- this module's entire purpose is measuring
# host wall-clock (simulator implementation speed, never modelled time);
# every modelled quantity still comes from the cycle counter.
import time

from repro.common import crypto
from repro.runner import WorkUnit, add_jobs_argument, execute
from repro.runner import merge as runner_merge
from repro.common.constants import (
    PAGE_SIZE,
    PTE_NX,
    PTE_PRESENT,
    PTE_WRITABLE,
    TLB_MISS_WALK_CYCLES,
)
from repro.hw.cycles import CycleCounter
from repro.hw.memctrl import MemoryController, ReferenceMemoryController
from repro.hw.memory import FrameAllocator, PhysicalMemory
from repro.hw.pagetable import PageTableWalker
from repro.hw.tlb import Tlb
from repro.system import System
from repro.workloads.guestprogs import CryptoWorker

SCHEMA = "fidelius-perfbench/3"
DEFAULT_OUTPUT = "BENCH_simulator.json"

#: benchmark sizing; ``quick`` is the CI smoke profile
FULL = {
    "repeats": 5,
    "keystream_calls": 30000,
    "keystream_keys": 4,
    "keystream_tweaks": 128,
    "mix_ops": 12000,
    "mix_pages": 64,
    "mix_cache_lines": 64,
    "tlb_translations": 60000,
    "tlb_roots": 6,
    "tlb_pages_per_root": 192,
    "tlb_flush_every": 2000,
    "macro_rounds": 6,
    "macro_pages": 96,
}
QUICK = {
    "repeats": 3,
    "keystream_calls": 2000,
    "keystream_keys": 2,
    "keystream_tweaks": 16,
    "mix_ops": 800,
    "mix_pages": 16,
    "mix_cache_lines": 16,
    "tlb_translations": 3000,
    "tlb_roots": 3,
    "tlb_pages_per_root": 32,
    "tlb_flush_every": 400,
    "macro_rounds": 2,
    "macro_pages": 24,
}

_MIX_SIZES = (8, 32, 64, 256, 1024, 4096)
_MIX_WEIGHTS = (25, 20, 20, 20, 10, 5)


def _median(run, repeats):
    """Median of ``repeats`` timed runs after one untimed warmup.

    ``run`` does its own setup and returns elapsed seconds, so cold
    state (fresh controllers, cleared keystream caches) is part of
    every sample — the numbers include miss costs, not just the steady
    state.
    """
    run()
    return statistics.median(run() for _ in range(repeats))


# -- keystream ---------------------------------------------------------------

def _keystream_trace(params, seed=0x4B5):
    rng = random.Random(seed)
    keys = [bytes(rng.getrandbits(8) for _ in range(16))
            for _ in range(params["keystream_keys"])]
    line_pas = [rng.randrange(0, params["keystream_tweaks"]) << 6
                for _ in range(params["keystream_tweaks"])]
    calls = []
    for _ in range(params["keystream_calls"]):
        length, offset = rng.choice(((64, 0), (32, 0), (16, 32), (8, 8)))
        data = bytes(rng.getrandbits(8) for _ in range(length))
        calls.append((rng.choice(keys), rng.choice(line_pas), data, offset))
    return calls


def keystream_bench(params):
    """Per-line keystream + XOR — the unit of work under every
    encrypted access — on the cached wide-integer fast path vs the
    kept-verbatim byte-at-a-time reference."""
    calls = _keystream_trace(params)

    def run_optimized():
        crypto.clear_keystream_cache()
        t0 = time.perf_counter()
        for key, line_pa, data, offset in calls:
            crypto.xex_line_encrypt(key, line_pa, data, offset)
        return time.perf_counter() - t0

    def run_reference():
        t0 = time.perf_counter()
        for key, line_pa, data, offset in calls:
            crypto._reference_xex_encrypt(
                key, line_pa.to_bytes(8, "little"), data, offset)
        return time.perf_counter() - t0

    optimized = _median(run_optimized, params["repeats"])
    reference = _median(run_reference, params["repeats"])
    for key, line_pa, data, offset in calls[:64]:
        assert crypto.xex_line_encrypt(key, line_pa, data, offset) == \
            crypto._reference_xex_encrypt(
                key, line_pa.to_bytes(8, "little"), data, offset)
    return {
        "calls": len(calls),
        "optimized_s": optimized,
        "reference_s": reference,
        "speedup": reference / optimized,
    }


# -- encrypted read/write mix ------------------------------------------------

def _mix_trace(params, seed=0x11F):
    rng = random.Random(seed)
    span = params["mix_pages"] * PAGE_SIZE
    ops = []
    for _ in range(params["mix_ops"]):
        size = rng.choices(_MIX_SIZES, _MIX_WEIGHTS)[0]
        pa = rng.randrange(0, span - size)
        if rng.random() < 0.5:
            ops.append(("r", pa, size))
        else:
            ops.append(("w", pa, bytes(rng.getrandbits(8)
                                       for _ in range(size))))
    return ops


def _run_mix(controller_cls, params, ops):
    crypto.clear_keystream_cache()
    memory = PhysicalMemory(params["mix_pages"] + 1)
    ctl = controller_cls(memory, CycleCounter(),
                         cache_lines=params["mix_cache_lines"])
    ctl.install_key(1, b"perfbench-key-01")
    before = crypto.keystream_cache_stats()
    t0 = time.perf_counter()
    for op in ops:
        if op[0] == "r":
            ctl.read(op[1], op[2], c_bit=True, asid=1)
        else:
            ctl.write(op[1], op[2], c_bit=True, asid=1)
    elapsed = time.perf_counter() - t0
    return elapsed, ctl, crypto.keystream_cache_delta(before)


def enc_rw_mix_bench(params):
    """The headline micro: a weighted encrypted read/write mix under
    plaintext-cache pressure, optimized vs reference controller, with
    cycle-ledger and DRAM equality asserted in the same run."""
    ops = _mix_trace(params)
    fast_holder = {}
    ref_holder = {}

    def run_fast():
        elapsed, ctl, keystream = _run_mix(MemoryController, params, ops)
        fast_holder["ctl"] = ctl
        # delta snapshot around *this* run: later runs (and the
        # reference arm) clear the global cache, so reading the stats
        # at report time would see someone else's state
        fast_holder["keystream"] = keystream
        return elapsed

    def run_ref():
        elapsed, ctl, _keystream = _run_mix(ReferenceMemoryController,
                                            params, ops)
        ref_holder["ctl"] = ctl
        return elapsed

    optimized = _median(run_fast, params["repeats"])
    reference = _median(run_ref, params["repeats"])
    fast, ref = fast_holder["ctl"], ref_holder["ctl"]
    equivalent = (
        fast.cycles.total == ref.cycles.total
        and fast.cycles.by_reason == ref.cycles.by_reason
        and fast.cycles.events == ref.cycles.events
        # fidelint: ignore[FID001] -- equivalence oracle: compares the
        # two controllers' raw DRAM byte-for-byte, reads nothing into
        # the modelled world
        and fast.memory.dump() == ref.memory.dump()
    )
    assert equivalent, "fast path diverged from the reference controller"
    return {
        "ops": len(ops),
        "optimized_s": optimized,
        "reference_s": reference,
        "speedup": reference / optimized,
        "equivalent": equivalent,
        "cycles_total": fast.cycles.total,
        "memctrl": fast.perf_counters(),
        "keystream_cache": fast_holder["keystream"],
    }


# -- walker + TLB churn ------------------------------------------------------

def walker_tlb_bench(params, seed=0x71B):
    """Translation churn across several address spaces with periodic
    ``flush_root`` storms — the workload the per-root TLB index and the
    slot-path walker loop were built for."""
    rng = random.Random(seed)
    roots_n = params["tlb_roots"]
    pages = params["tlb_pages_per_root"]
    frames = roots_n * (pages + 8) + 64
    memory = PhysicalMemory(frames)
    alloc = FrameAllocator(frames, reserved=1)
    walker = PageTableWalker(memory, alloc_frame=alloc.alloc)
    roots = []
    for _ in range(roots_n):
        root = alloc.alloc()
        # fidelint: ignore[FID001] -- construction-time zeroing of a
        # fresh page-table root on a bare bench machine (same idiom as
        # repro.xen.npt)
        memory.zero_frame(root)
        for i in range(pages):
            walker.map(root, i << 12, alloc.alloc(),
                       PTE_WRITABLE | PTE_NX | PTE_PRESENT)
        roots.append(root)
    vas = [i << 12 for i in range(pages)]

    def churn():
        cycles = CycleCounter()
        tlb = Tlb(cycles, capacity=256)
        t0 = time.perf_counter()
        for i in range(params["tlb_translations"]):
            root = roots[i % roots_n]
            va = vas[rng.randrange(pages)]
            vpn = va >> 12
            if tlb.lookup(root, vpn) is None:
                cycles.charge(TLB_MISS_WALK_CYCLES, "pt-walk")
                tlb.insert(root, vpn, walker.permissions(root, va))
            if i % params["tlb_flush_every"] == params["tlb_flush_every"] - 1:
                tlb.flush_root(roots[rng.randrange(roots_n)])
        elapsed = time.perf_counter() - t0
        churn.tlb = tlb
        return elapsed

    median = _median(churn, params["repeats"])
    tlb = churn.tlb
    return {
        "translations": params["tlb_translations"],
        "median_s": median,
        "per_translation_us": 1e6 * median / params["tlb_translations"],
        "tlb": {
            "hits": tlb.hits,
            "misses": tlb.misses,
            "evictions": tlb.evictions,
            "entries": len(tlb),
            "roots_indexed": len(tlb.root_index_sizes()),
        },
    }


# -- guest-workload macro ----------------------------------------------------

def _macro_system(params, reference, batched=True):
    system = System.create(fidelius=False, frames=1024, seed=0xBE7C,
                           reference_datapath=reference,
                           cache_lines=params["mix_cache_lines"])
    _domain, ctx = system.create_baseline_sev_guest(
        "perfbench", guest_frames=params["macro_pages"] + 32)
    worker = CryptoWorker(ctx, first_gfn=8, pages=params["macro_pages"],
                          encrypted=True, batched=batched)
    return system, worker


def guest_macro_bench(params):
    """One real guest workload (CryptoWorker hashing an encrypted
    working set) on two identically seeded systems: optimized data path
    vs ``reference_datapath=True``.  Both arms run the *span-batched*
    worker (two ``GuestContext.batch`` calls per round), so the
    comparison isolates the data-path implementation under the same
    access order.  The digests and the cycle deltas must match exactly;
    only the wall-clock may differ."""
    rounds = params["macro_rounds"]
    results = {}

    def run_on(reference, tag):
        crypto.clear_keystream_cache()
        system, worker = _macro_system(params, reference)
        worker.run(1)                      # warmup round, untimed
        snap = system.machine.cycles.snapshot()
        before = crypto.keystream_cache_stats()
        t0 = time.perf_counter()
        digest = worker.run(rounds)
        elapsed = time.perf_counter() - t0
        results[tag] = {
            "digest": digest,
            "cycles": system.machine.cycles.since(snap),
            # delta around the timed rounds: the other data path's
            # runs clear the global cache, so a report-time read
            # would see zeros (the /2 enc_rw_mix bug)
            "keystream": crypto.keystream_cache_delta(before),
            "perf_stats": system.machine.perf_stats(),
        }
        return elapsed

    optimized = _median(lambda: run_on(False, "fast"), params["repeats"])
    reference = _median(lambda: run_on(True, "ref"), params["repeats"])
    fast, ref = results["fast"], results["ref"]
    assert fast["digest"] == ref["digest"], \
        "guest workload output diverged between data paths"
    assert fast["cycles"] == ref["cycles"], \
        "guest workload cycle cost diverged between data paths"
    return {
        "rounds": rounds,
        "working_set_pages": params["macro_pages"],
        "batched": True,
        "optimized_s": optimized,
        "reference_s": reference,
        "speedup": reference / optimized,
        "digest_equal": True,
        "cycles_equal": True,
        "workload_cycles": fast["cycles"],
        "keystream_cache": fast["keystream"],
        "perf_stats": fast["perf_stats"],
    }


# -- driver ------------------------------------------------------------------

#: The shardable benchmark set, in presentation order.
BENCH_FNS = {
    "keystream": keystream_bench,
    "enc_rw_mix": enc_rw_mix_bench,
    "walker_tlb": walker_tlb_bench,
    "guest_macro": guest_macro_bench,
}


def _run_bench(name, params):
    """Module-level dispatch so benchmark shards survive pickling."""
    return BENCH_FNS[name](params)


def run_all(quick=False, jobs=1, only=None):
    """Run the suite (or the subset named by ``only``) and assemble
    the report.  ``only`` is an iterable of benchmark names."""
    params = QUICK if quick else FULL
    names = list(BENCH_FNS) if only is None \
        else [n for n in BENCH_FNS if n in set(only)]
    unknown = set(only or ()) - set(BENCH_FNS)
    if unknown:
        raise ValueError("unknown benchmarks: %s" % ", ".join(
            sorted(unknown)))
    units = [WorkUnit.of(name, _run_bench, name, params)
             for name in names]
    report = execute(units, jobs=jobs)
    benchmarks = dict(zip(names, report.values()))
    counters = benchmarks["guest_macro"].pop("perf_stats") \
        if "guest_macro" in benchmarks else {}
    pool = report.sharding
    return {
        "schema": SCHEMA,
        "quick": quick,
        "repeats": params["repeats"],
        "benchmarks": benchmarks,
        "counters": counters,
        "sharding": {
            "jobs": report.jobs,
            "host_cpus": os.cpu_count() or 1,
            "wall_s": report.wall_s,
            "busy_s": report.busy_s,
            "utilization": report.utilization(),
            "mode": pool["mode"],
            "workers_spawned": pool["workers_spawned"],
            "spawn_s": pool["spawn_s"],
            "transport_s": pool["transport_s"],
            "compute_s": pool["compute_s"],
            "dispatch_bytes": pool["dispatch_bytes"],
            "result_bytes": pool["result_bytes"],
            "shards": report.shard_counters(),
            "worker_shards": pool["shards"],
        },
    }


def deterministic_digest(report):
    """Digest of the report minus wall-clock fields — equal across
    ``--jobs`` settings and machines iff the modelled results are."""
    return runner_merge.deterministic_digest(report)


def format_report(report):
    lines = ["Simulator fast-path benchmarks (%s, median of %d)" % (
        "quick" if report["quick"] else "full", report["repeats"])]
    for name, bench in report["benchmarks"].items():
        if "speedup" in bench:
            lines.append(
                "  %-12s %8.3fs vs %8.3fs reference  -> %5.2fx" % (
                    name, bench["optimized_s"], bench["reference_s"],
                    bench["speedup"]))
        else:
            lines.append(
                "  %-12s %8.3fs (%.2f us/translation)" % (
                    name, bench["median_s"], bench["per_translation_us"]))
    ks = report["counters"].get("keystream_cache")
    if ks is not None:
        lines.append("  keystream cache: %d line hits / %d misses" % (
            ks["line_hits"], ks["line_misses"]))
    sharding = report["sharding"]
    lines.append(
        "  executor: mode=%s workers=%d spawn=%.3fs transport=%.3fs "
        "compute=%.3fs" % (
            sharding["mode"], sharding["workers_spawned"],
            sharding["spawn_s"], sharding["transport_s"],
            sharding["compute_s"]))
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval.perfbench",
        description="Measure the simulator fast path against its "
                    "kept-simple reference twin.")
    parser.add_argument("--json", action="store_true",
                        help="write %s and print the JSON" % DEFAULT_OUTPUT)
    parser.add_argument("--out", default=DEFAULT_OUTPUT,
                        help="output path for --json (default %(default)s)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke sizes (seconds, not minutes)")
    parser.add_argument("--only", action="append", metavar="NAME",
                        choices=sorted(BENCH_FNS), default=None,
                        help="run only the named benchmark (repeatable); "
                             "the CI regression gate uses "
                             "'--only guest_macro'")
    add_jobs_argument(parser)
    args = parser.parse_args(argv)
    report = run_all(quick=args.quick, jobs=args.jobs, only=args.only)
    if args.json:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_report(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
