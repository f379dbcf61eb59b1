"""The closed-loop harness: set-up, measured phase, checks, metrics.

One client (this process) sends the next op only when the previous one
has returned, with no think time.  The measured phase runs whole rounds
until ``--seconds`` have passed, so its op mix is the same on every run,
and with ``--trace 0`` until the tail percentile is p90 as well.

With ``--trace 0`` the run reports the end-to-end metrics on the host
clock; with ``--trace 1`` it sets up once with the span wrappers in
place, runs ``--seconds`` of rounds that alternate between tracing off
and on, and reports the per-layer metrics.  Simulated statistics (the
paper's clock) always come from the sim window, the first
``sim_rounds`` rounds after set-up, and are never added to host time.
"""

import gc
import importlib
import math
import resource
import statistics
import time
from collections import defaultdict

import ledger
import scenarios
import spans
import speed

#: set-ups per ``--trace 0`` run; setup_s is their median
SETUP_REPEATS = 5

#: tail percentiles tried, highest first.  Nothing above p90: on a
#: shared machine those few samples are host-side stalls (guest_compute's
#: p99 read 1.5x its slowest op kind's median in fast runs and at that
#: median in slow ones), not the workload
TAIL_LADDER = (90.0, 75.0, 50.0)
#: samples a tail percentile must leave beyond it
TAIL_BEYOND = 10

END_TO_END = (
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)

#: (metric, op kind) — op-kind latency medians, host clock, taken from
#: the untraced rounds of the traced run
KIND_P50 = (
    ("workloads.crypto_small.p50_ms", "crypto_small"),
    ("workloads.crypto_large.p50_ms", "crypto_large"),
    ("workloads.session.p50_ms", "session"),
    ("workloads.kv_aesni.p50_ms", "kv_aesni"),
    ("workloads.kv_sevapi.p50_ms", "kv_sevapi"),
    ("core.rotate.p50_ms", "rotate"),
    ("system.disk_io.p50_ms", "disk_io"),
    ("cloud.launch_tenant.p50_ms", "launch"),
    ("cloud.migrate_tenant.p50_ms", "migrate"),
    ("cloud.shutdown_tenant.p50_ms", "shutdown"),
    ("cloud.monitor.p50_ms", "monitor"),
)

PER_LAYER = (
    ("eval.macro.calls", "count"), ("eval.macro.self_s", "s"),
    ("workloads.tracegen.self_s", "s"),
    ("workloads.cache_model.self_s", "s"),
    ("workloads.cache_model.lines", "count"),
    ("workloads.cache_model.ns_per_line", "ns"),
    ("workloads.cache_model.misses", "count"),
) + tuple((name, "ms") for name, _ in KIND_P50) + (
    ("common.dh.calls", "count"), ("common.dh.self_s", "s"),
    ("common.keystream.self_s", "s"),
    ("common.keystream.line_hit_ratio", "ratio"),
    ("common.keystream.span_hit_ratio", "ratio"),
    ("hw.pagetable.map.calls", "count"), ("hw.pagetable.map.self_s", "s"),
    ("hw.pagetable.translate.self_s", "s"),
    ("hw.memctrl.calls", "count"), ("hw.memctrl.self_s", "s"),
    ("hw.tlb.hit_ratio", "ratio"), ("hw.tlb.evictions", "count"),
    ("hw.memctrl.plaintext_hit_ratio", "ratio"),
    ("hw.sim_cycles", "cycles"),
    ("sev.firmware.commands", "count"), ("sev.firmware.self_s", "s"),
    ("xen.hypercalls", "count"), ("xen.guest_mem.self_s", "s"),
    ("xen.pv_block.self_s", "s"), ("xen.domain.self_s", "s"),
    ("xen.sim_cycles", "cycles"),
    ("core.gate_crossings", "count"), ("core.shadow_roundtrips", "count"),
    ("core.sim_cycles", "cycles"),
    ("system.create.self_s", "s"),
    ("fleet.events", "count"), ("fleet.build.self_s", "s"),
    ("fleet.run.self_s", "s"), ("fleet.ns_per_event", "ns"),
    ("fleet.rejected", "count"),
    ("runner.spawn_s", "s"), ("runner.transport_s", "s"),
    ("runner.compute_s", "s"), ("runner.utilization", "ratio"),
    ("runner.dispatch_bytes", "bytes"), ("runner.result_bytes", "bytes"),
) + tuple(("%s.self_s" % layer, "s") for layer in spans.LAYERS) + (
    ("sim.cycles_per_op", "cycles"), ("sim.unmapped_cycles", "cycles"),
    ("trace.spans", "count"), ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"), ("trace.overhead_pct", "%"),
)

#: span names whose self time should dominate each workload's traced
#: measured phase (BENCHMARK.json's predictions)
PREDICTED = {
    "paper_figures": ("workloads.cache_model", "workloads.tracegen"),
    "tenant_lifecycle": ("common.dh", "hw.pagetable.map"),
    "guest_compute": ("hw.memctrl", "common.keystream"),
    "fleet_campaign": ("fleet.run", "fleet.build"),
}

#: the span each per-layer metric is measured at, where its name does
#: not start with that span's name; None for metrics that come from op
#: latencies or the sim window, not from spans
METRIC_SPAN = {
    "xen.hypercalls": "xen.hypercall",
    "fleet.ns_per_event": "fleet.run",
    "workloads.cache_model.misses": None,
    "hw.memctrl.plaintext_hit_ratio": None,
}
METRIC_SPAN.update((name, None) for name, _kind in KIND_P50)

#: the pooled runs' public sharding counters
RUNNER_KEYS = ("spawn_s", "transport_s", "compute_s", "dispatch_bytes",
               "result_bytes")

#: the per-layer metrics each public counter read feeds; a read that
#: fails marks them missing
KEYSTREAM_METRICS = ("common.keystream.line_hit_ratio",
                     "common.keystream.span_hit_ratio")
RUNNER_METRICS = tuple("runner." + key for key in RUNNER_KEYS) + (
    "runner.utilization",)
WORKER_SPAN_METRICS = ("fleet.build.self_s", "fleet.run.self_s",
                       "fleet.ns_per_event", "fleet.self_s")
#: span -> the metrics its counting hook feeds
HOOK_METRICS = {
    "workloads.cache_model": ("workloads.cache_model.lines",
                              "workloads.cache_model.ns_per_line"),
    "runner.execute": RUNNER_METRICS + WORKER_SPAN_METRICS,
}


class Phase:
    """What one arm of the closed loop observed."""

    def __init__(self):
        self.records = []       # (round, kind, t0, t1, ops, latencies)
        self.ops = 0
        self.samples_n = 0
        self.attempted = 0
        self.failures = []
        self.rounds = 0
        self.wall_s = 0.0

    def samples(self, probe=None):
        """Latency samples by op kind; with a ``probe``, each is put at
        the probe's reference speed."""
        out = defaultdict(list)
        for _round, kind, t0, t1, _ops, latencies in self.records:
            factor = probe.scale(t0, t1) if probe is not None else 1.0
            out[kind].extend(x * factor for x in latencies)
        return out

    def throughput(self, probe=None):
        """The median round's ops over the time spent inside them (the
        speed probes and the loop's own bookkeeping left out); with a
        ``probe``, at its reference speed.  Every round has the same op
        mix, and the median keeps the few rounds that other load on the
        machine slowed from moving the figure."""
        rounds = defaultdict(lambda: [0, 0.0])
        for index, _kind, t0, t1, ops, _lat in self.records:
            factor = probe.scale(t0, t1) if probe is not None else 1.0
            rounds[index][0] += ops
            rounds[index][1] += (t1 - t0) * factor
        return statistics.median(ops / busy
                                 for ops, busy in rounds.values())


class Loop:
    """A measured phase: its arms, the untimed rounds that complete the
    sim window, and the sim window's statistics."""

    def __init__(self, arms):
        self.arms = [Phase() for _ in range(arms)]
        self.untimed = Phase()
        self.rounds = 0
        self.sim = None
        self.stopped_early = False

    @property
    def phases(self):
        return self.arms + [self.untimed]

    def round_done(self, session, sim_rounds):
        self.rounds += 1
        if self.rounds == sim_rounds:
            self.sim = session.sim_end(sum(p.ops for p in self.phases))


def _run_round(session, phase, index, tracer=None, probe=None):
    from repro.common.errors import ReproError
    if probe is not None:
        probe.due()
    start = time.perf_counter()
    if tracer is not None:
        tracer.active = True
    try:
        for kind, op in session.round(index):
            if probe is not None:
                probe.due(speed.OP_GAP_S)
            if tracer is not None:
                tracer.op = phase.attempted
            phase.attempted += 1
            t0 = time.perf_counter()
            try:
                outcome = op()
            except ReproError as exc:
                phase.failures.append("%s: %s" % (kind, exc))
                continue
            t1 = time.perf_counter()
            if isinstance(outcome, scenarios.Batch):
                phase.ops += outcome.count
                phase.samples_n += len(outcome.latencies)
                phase.records.append((index, kind, t0, t1,
                                      outcome.count, outcome.latencies))
            else:
                phase.ops += 1
                phase.samples_n += 1
                phase.records.append((index, kind, t0, t1, 1, [t1 - t0]))
    finally:
        if tracer is not None:
            tracer.active = False
    phase.wall_s += time.perf_counter() - start
    phase.rounds += 1


def closed_loop(session, seconds, sim_rounds, tracer=None, probe=None,
                full_tail=False):
    """Whole rounds until ``seconds`` have passed; the sim window closes
    after ``sim_rounds`` rounds, untimed rounds being added if the
    deadline came first.  With a ``tracer`` the rounds alternate between
    two arms, tracing off and on, so that both arms run on the same
    machine speeds; at least one round runs in each.  With a ``probe``
    the machine's speed is sampled between ops.  With ``full_tail`` the
    rounds also go on until the ladder's top percentile has its samples
    beyond it, so that the machine's speed never decides which
    percentile the tail reports: paper_figures' 48 samples a round
    would give p75 after two rounds and p90 after three."""
    loop = Loop(2 if tracer is not None else 1)
    exhausted = getattr(session, "exhausted", lambda: False)
    deadline = time.perf_counter() + seconds
    while True:
        arm = loop.rounds % len(loop.arms)
        phase = loop.arms[arm]
        before = phase.samples_n
        _run_round(session, phase, loop.rounds,
                   tracer if arm == 1 else None, probe)
        loop.round_done(session, sim_rounds)
        if loop.rounds < len(loop.arms):
            continue
        # a round that added no samples (every op failed) ends the wait
        short_tail = full_tail and before < phase.samples_n and _beyond(
            TAIL_LADDER[0], phase.samples_n) < TAIL_BEYOND
        if time.perf_counter() >= deadline and not short_tail:
            break
        if exhausted():
            loop.stopped_early = True
            break
    if probe is not None:
        probe.due()
    while loop.rounds < sim_rounds:
        _run_round(session, loop.untimed, loop.rounds)
        loop.round_done(session, sim_rounds)
    return loop


def tail(samples):
    """(percentile, value, samples): the highest ladder percentile with
    at least ``TAIL_BEYOND`` samples beyond it (nearest rank)."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_LADDER:
        if _beyond(pct, n) >= TAIL_BEYOND:
            return pct, ordered[n - _beyond(pct, n) - 1], n
    return 50.0, statistics.median(ordered), n


def _beyond(pct, n):
    """Samples beyond the nearest-rank ``pct`` percentile of ``n``."""
    return n - max(1, math.ceil(pct / 100.0 * n))


def reset_derived_caches():
    """Empty every process-global cache the state registry lists, so
    each set-up starts from the same state as a fresh interpreter."""
    from repro.common import state_registry
    for entry in state_registry.all_entries():
        if entry.reset is not None:
            getattr(importlib.import_module(entry.module), entry.reset)()


def peak_rss_mib():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _setup(workload, seed, probe=None):
    """A fresh session and its set-up time, unscaled and, with a
    ``probe``, at reference speed."""
    reset_derived_caches()
    gc.collect()
    if probe is not None:
        probe.burst()
    t0 = time.perf_counter()
    session = workload.setup(seed)
    t1 = time.perf_counter()
    if probe is None:
        return session, t1 - t0, t1 - t0
    probe.burst()
    return session, t1 - t0, (t1 - t0) * probe.scale(t0, t1)


def _sim_summary(sim):
    return {"sim_digest": ledger.digest(sim["digest_parts"]),
            "sim_cycles_per_op": sim["cycles_per_op"]}


def _flat(by_kind):
    return [x for kind in sorted(by_kind) for x in by_kind[kind]]


def run_end_to_end(workload, seed, seconds):
    probe = speed.SpeedProbe()
    setups = []
    raw_setups = []
    session = None
    for _ in range(SETUP_REPEATS):
        session = None
        session, raw, scaled = _setup(workload, seed, probe)
        raw_setups.append(raw)
        setups.append(scaled)
    session.sim_begin()
    loop = closed_loop(session, seconds, workload.sim_rounds, probe=probe,
                       full_tail=True)
    # read before the checks, which copy raw DRAM or rerun a campaign
    rss = peak_rss_mib()
    problems = session.check()
    (phase,) = loop.arms
    samples = _flat(phase.samples(probe))
    raw_samples = _flat(phase.samples())
    pct, tail_value, n = tail(samples)
    metrics = {
        "throughput_ops_s": phase.throughput(probe),
        "latency_p50_ms": 1e3 * statistics.median(samples),
        "latency_tail_ms": 1e3 * tail_value,
        "setup_s": statistics.median(setups),
        "peak_rss_mib": rss,
    }
    notes = {
        "latency_tail": {"percentile": pct, "samples": n,
                         "beyond": _beyond(pct, n)},
        "unscaled": {
            "throughput_ops_s": phase.throughput(),
            "latency_p50_ms": 1e3 * statistics.median(raw_samples),
            "latency_tail_ms": 1e3 * tail(raw_samples)[1],
            "setup_s": statistics.median(raw_setups),
        },
        "probe": probe.summary(),
        "setup_runs_s": raw_setups,
        "rounds": loop.rounds,
        "measured_s": phase.wall_s,
        "stopped_early": loop.stopped_early,
        "kinds": _kind_summary(phase.samples()),
        "missing": dict(loop.sim["missing"]),
    }
    notes.update(_sim_summary(loop.sim))
    notes["sim"] = loop.sim
    return _result(metrics, dict(END_TO_END), loop.phases, problems), notes


def _kind_summary(by_kind):
    return {kind: {"samples": len(xs), "p50_ms": 1e3 * statistics.median(xs)}
            for kind, xs in sorted(by_kind.items()) if xs}


def _result(metrics, units, phases, problems):
    failures = [f for phase in phases for f in phase.failures]
    return {
        "correct": not problems,
        "attempted": sum(phase.attempted for phase in phases),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
        "problems": problems + failures,
    }


def run_traced(workload, seed, seconds):
    tracer = spans.Tracer()
    installation = spans.install(tracer)
    missing = {}
    try:
        tracer.active = True
        session, setup_s, _ = _setup(workload, seed)
        tracer.active = False
        setup_self = dict(tracer.self_s)
        tracer.reset()
        session.sim_begin()
        before = spans.read_counter(_keystream_stats, missing,
                                    KEYSTREAM_METRICS, "keystream stats")
        loop = closed_loop(session, seconds, workload.sim_rounds,
                           tracer=tracer)
        keystream = None if before is None else spans.read_counter(
            lambda: _keystream_ratios(before), missing, KEYSTREAM_METRICS,
            "keystream stats")
    finally:
        tracer.active = False
        installation.uninstall()
    problems = session.check()
    metrics, notes = per_layer_metrics(
        workload, tracer, installation, loop, setup_self, keystream,
        missing)
    if tracer.negative:
        problems.append("%d spans have negative self time"
                        % tracer.negative)
    if metrics["trace.unattributed_s"] < -1e-6:
        problems.append("per-layer self times sum to %.6f s, more than the "
                        "traced wall time %.6f s" % (
                            metrics["trace.wall_s"]
                            - metrics["trace.unattributed_s"],
                            metrics["trace.wall_s"]))
    notes.update(_sim_summary(loop.sim))
    notes["setup_s"] = setup_s
    notes["rounds"] = [arm.rounds for arm in loop.arms]
    notes["stopped_early"] = loop.stopped_early
    notes["missing"] = missing
    notes["trace"] = _trace_dump(tracer)
    return (_result(metrics, dict(PER_LAYER), loop.phases, problems),
            notes)


def _keystream_stats():
    from repro.common import crypto
    return crypto.keystream_cache_stats()


def _keystream_ratios(before):
    from repro.common import crypto
    delta = crypto.keystream_cache_delta(before)
    return {
        "common.keystream.line_hit_ratio": _ratio(delta["line_hits"],
                                                  delta["line_misses"]),
        "common.keystream.span_hit_ratio": _ratio(delta["span_hits"],
                                                  delta["span_misses"]),
    }


def _runner_counters(run_reports):
    """The pooled ``runner.execute`` calls' public sharding counters."""
    pooled = [r for r in run_reports if r.jobs > 1]
    out = {"runner." + key: sum(r.sharding[key] for r in pooled)
           for key in RUNNER_KEYS}
    busy = sum(r.busy_s for r in pooled)
    available = sum(r.wall_s * r.jobs for r in pooled)
    out["runner.utilization"] = busy / available if available else 0.0
    return out


def _ratio(hits, misses):
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer_metrics(workload, tracer, installation, loop, setup_self,
                      keystream, missing):
    """The per-layer metrics, and notes for the run details; adds every
    metric that could not be measured to ``missing``."""
    plain, traced = loop.arms
    self_s = tracer.self_s
    calls = tracer.calls
    layers = spans.layer_self_times(tracer)
    sim = loop.sim
    sim_layers = sim.get("layers", {})
    missing.update(sim["missing"])
    m = {name: 0.0 for name, _ in PER_LAYER}
    m["eval.macro.calls"] = calls["eval.macro"]
    m["eval.macro.self_s"] = self_s["eval.macro"]
    m["workloads.tracegen.self_s"] = self_s["workloads.tracegen"]
    lines = tracer.counts["workloads.cache_model.lines"]
    m["workloads.cache_model.self_s"] = self_s["workloads.cache_model"]
    m["workloads.cache_model.lines"] = lines
    m["workloads.cache_model.ns_per_line"] = (
        1e9 * self_s["workloads.cache_model"] / lines if lines else 0.0)
    m["workloads.cache_model.misses"] = sim.get("cache_model_misses") or 0
    plain_samples = plain.samples()
    for name, kind in KIND_P50:
        xs = plain_samples.get(kind)
        m[name] = 1e3 * statistics.median(xs) if xs else 0.0
    m["common.dh.calls"] = calls["common.dh"]
    m["common.dh.self_s"] = self_s["common.dh"]
    m["common.keystream.self_s"] = self_s["common.keystream"]
    m.update(keystream or {})
    m["hw.pagetable.map.calls"] = calls["hw.pagetable.map"]
    m["hw.pagetable.map.self_s"] = self_s["hw.pagetable.map"]
    m["hw.pagetable.translate.self_s"] = self_s["hw.pagetable.translate"]
    m["hw.memctrl.calls"] = calls["hw.memctrl"]
    m["hw.memctrl.self_s"] = self_s["hw.memctrl"]
    m["hw.tlb.hit_ratio"] = sim.get("tlb_hit_ratio", 0.0)
    m["hw.tlb.evictions"] = sim.get("tlb_evictions", 0)
    m["hw.memctrl.plaintext_hit_ratio"] = sim.get("plaintext_hit_ratio", 0.0)
    m["hw.sim_cycles"] = sim_layers.get("hw", 0)
    m["sev.firmware.commands"] = calls["sev.firmware"]
    m["sev.firmware.self_s"] = self_s["sev.firmware"]
    m["xen.hypercalls"] = calls["xen.hypercall"]
    m["xen.guest_mem.self_s"] = self_s["xen.guest_mem"]
    m["xen.pv_block.self_s"] = self_s["xen.pv_block"]
    m["xen.domain.self_s"] = self_s["xen.domain"]
    m["xen.sim_cycles"] = sim_layers.get("xen", 0)
    m["core.gate_crossings"] = sim.get("gate_crossings", 0)
    m["core.shadow_roundtrips"] = sim.get("shadow_roundtrips", 0)
    m["core.sim_cycles"] = sim_layers.get("core", 0)
    m["system.create.self_s"] = setup_self.get("system.create", 0.0)
    fleet_events = traced.ops if workload.name == "fleet_campaign" else 0
    m["fleet.events"] = fleet_events
    m["fleet.build.self_s"] = self_s["fleet.build"]
    m["fleet.run.self_s"] = self_s["fleet.run"]
    m["fleet.ns_per_event"] = (1e9 * self_s["fleet.run"] / fleet_events
                               if fleet_events else 0.0)
    m["fleet.rejected"] = sim.get("fleet_rejected", 0)
    m.update(spans.read_counter(
        lambda: _runner_counters(tracer.run_reports), missing,
        RUNNER_METRICS, "RunReport counters") or {})
    for layer, seconds in layers.items():
        m["%s.self_s" % layer] = seconds
    m["sim.cycles_per_op"] = sim.get("cycles_per_op") or 0.0
    m["sim.unmapped_cycles"] = sim_layers.get("unmapped", 0)
    m["trace.spans"] = tracer.recorded
    m["trace.wall_s"] = traced.wall_s
    m["trace.unattributed_s"] = traced.wall_s - sum(layers.values())
    # the arms alternate round by round, so machine speed cancels
    m["trace.overhead_pct"] = 100.0 * (plain.throughput()
                                       / traced.throughput() - 1.0)

    for span, reason in tracer.hook_failures.items():
        for name in HOOK_METRICS[span]:
            missing.setdefault(name, "counts at %s: %s" % (span, reason))
    gone = set(installation.missing_boundaries())
    for name, _unit in PER_LAYER:
        span = METRIC_SPAN[name] if name in METRIC_SPAN else _span_of(name)
        if span in gone:
            targets = [t for n, _, ts in spans.BOUNDARIES if n == span
                       for t in ts]
            missing[name] = "boundary %s not found: %s" % (span, "; ".join(
                "%s (%s)" % (t, installation.missing.get(t, "?"))
                for t in targets))
    lost = tracer.counts["runner.pooled_shards"] \
        - tracer.counts["runner.traced_shards"]
    if lost:
        for name in WORKER_SPAN_METRICS:
            missing.setdefault(name, "%d pooled shards returned no worker "
                               "spans" % lost)
    ranked = sorted(self_s.items(), key=lambda kv: -kv[1])
    dominant_layer = max(layers, key=layers.get)
    predicted = PREDICTED[workload.name]
    notes = {
        "dominant_layer": dominant_layer,
        "top_spans": [[name, seconds] for name, seconds in ranked[:5]],
        "predicted_spans": list(predicted),
        "prediction_met": dominant_layer in {spans.LAYER_OF[p]
                                             for p in predicted},
        "partial_boundaries": {t: r for t, r in
                               installation.missing.items()},
        "self_s_by_span": dict(self_s),
        "calls_by_span": dict(calls),
        "sim": sim,
    }
    return m, notes


def _span_of(metric):
    best = None
    for name, _, _ in spans.BOUNDARIES:
        if metric.startswith(name + ".") and (
                best is None or len(name) > len(best)):
            best = name
    return best


def _trace_dump(tracer):
    names = sorted({s[1] for s in tracer.spans}
                   | {s[1] for s in tracer.worker_spans})
    index = {name: i for i, name in enumerate(names)}
    return {
        "names": names,
        "layers": [spans.LAYER_OF[n] for n in names],
        "recorded": tracer.recorded,
        "kept": len(tracer.spans) + len(tracer.worker_spans),
        "fields": ["sid", "name", "parent", "op", "start", "end"],
        "spans": [[sid, index[name], parent, op, start, end]
                  for sid, name, parent, op, start, end in tracer.spans],
        "worker_fields": ["pid", "name", "op", "start", "end"],
        "worker_spans": [[pid, index[name], op, start, end]
                         for pid, name, op, start, end
                         in tracer.worker_spans],
    }
