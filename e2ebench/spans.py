"""Layer-boundary tracing driven entirely from the benchmark's own files.

The simulator carries no instrumentation.  Instead, :func:`install`
wraps a fixed list of public entry points per FID003 layer at runtime
(:data:`BOUNDARIES`) and every call through one of them becomes a span:
name, layer, start, end, parent span and op id.  Spans stay in memory;
the benchmark writes them out when it exits.

Self time is a span's duration minus the time its child spans cover,
computed online from the span stack, so the per-boundary totals are
exact even when only the first :data:`SPAN_CAP` spans are kept for the
written trace.  Work that a persistent-pool worker does comes back with
the shard result (the fork start method hands the worker the same
wrappers) and is merged into the parent's timeline: while the parent
waits inside ``runner.execute``, each instant is shared evenly among
the worker spans active at that instant, so per-layer self times plus
the unattributed gaps between top-level spans still add up to the
traced wall time.

A boundary that a later refactor renames or removes is reported as
missing, with its name and the reason; it never crashes the run.  The
same holds for the public counters read at the boundaries
(:func:`read_counter`, and the hooks that count inside a span).
"""

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

#: spans kept for the written trace; totals are exact past the cap
SPAN_CAP = 50_000

#: attribute a worker's spans ride home on, attached to the shard value
WORKER_ATTR = "_e2ebench_worker_trace"

#: what reading a renamed, removed or reshaped public counter raises
COUNTER_ERRORS = (AttributeError, ImportError, LookupError, TypeError,
                  ValueError)

FIRMWARE_COMMANDS = (
    "init", "shutdown", "launch_start", "launch_update_data",
    "launch_measure", "launch_finish", "activate", "deactivate",
    "decommission", "dbg_decrypt", "send_start", "send_update",
    "send_update_sectors", "send_finish", "send_cancel", "receive_start",
    "receive_update", "receive_update_sectors", "receive_finish",
)


def _methods(owner, names):
    return tuple("%s.%s" % (owner, name) for name in names)


#: (span name, FID003 layer, "module:attribute.path" targets).  The span
#: name is what the per-layer metrics are keyed by.
BOUNDARIES = (
    ("eval.macro", "eval", ("repro.eval.macro:evaluate_profile",)),
    ("workloads.cache_model", "workloads",
     ("repro.workloads.tracegen:simulate_misses",)),
    ("workloads.tracegen", "workloads",
     ("repro.workloads.tracegen:generate_span_trace",
      "repro.workloads.tracegen:generate_trace")),
    ("workloads.guestprogs", "workloads",
     _methods("repro.workloads.guestprogs:CryptoWorker", ("round",))
     + _methods("repro.workloads.guestprogs:SessionServer",
                ("handle_request",))
     + _methods("repro.workloads.guestprogs:KeyValueStore",
                ("put", "get"))),
    ("common.dh", "common",
     _methods("repro.common.crypto:DiffieHellman",
              ("__init__", "shared_secret"))),
    ("common.keystream", "common",
     tuple("repro.common.crypto:" + name for name in (
         "xex_line_encrypt", "xex_line_decrypt", "span_keystream_int",
         "xex_encrypt", "xex_decrypt", "keystream"))),
    ("hw.pagetable.map", "hw",
     ("repro.hw.pagetable:PageTableWalker.map",)),
    ("hw.pagetable.translate", "hw",
     ("repro.hw.pagetable:PageTableWalker.translate",)),
    ("hw.memctrl", "hw",
     _methods("repro.hw.memctrl:MemoryController",
              ("read", "write", "run_batch", "dma_read", "dma_write"))),
    ("sev.firmware", "sev",
     _methods("repro.sev.firmware:SevFirmware", FIRMWARE_COMMANDS)),
    ("xen.hypercall", "xen", ("repro.xen.domain:GuestContext.hypercall",)),
    ("xen.guest_mem", "xen",
     _methods("repro.xen.domain:GuestContext", ("read", "write", "batch"))),
    ("xen.pv_block", "xen",
     _methods("repro.xen.pv_io.frontend:BlockFrontend", ("read", "write"))
     + ("repro.xen.pv_io.frontend:connect_block_device",)),
    ("xen.domain", "xen",
     _methods("repro.xen.hypervisor:Hypervisor",
              ("create_domain", "destroy_domain"))),
    ("core.lifecycle", "core",
     ("repro.core.lifecycle:boot_protected_guest",
      "repro.core.lifecycle:GuestOwner.prepare_encrypted_image")),
    ("core.migration", "core",
     tuple("repro.core.migration:" + name for name in (
         "send_guest", "receive_guest", "snapshot_guest", "restore_guest",
         "migrate_guest"))),
    ("core.fidelius", "core",
     _methods("repro.core.fidelius:Fidelius",
              ("install", "protect_domain", "shutdown_guest",
               "firmware_call"))),
    ("core.shadow", "core",
     _methods("repro.core.shadow:ShadowKeeper", ("on_exit", "pre_entry"))),
    ("core.gates", "core",
     ("repro.core.gates:GateKeeper.guarded_write",)),
    ("core.attestation", "core",
     ("repro.core.attestation:AttestationAuthority.quote",
      "repro.core.attestation:RemoteVerifier.explain")),
    ("system.create", "system", ("repro.system:System.create",)),
    ("system.guest", "system",
     _methods("repro.system:System",
              ("boot_protected_guest", "attach_disk", "aesni_encoder_for",
               "sev_encoder_for"))),
    ("cloud.create", "cloud", ("repro.cloud:Cloud.__init__",)),
    ("cloud.launch_tenant", "cloud", ("repro.cloud:Cloud.launch_tenant",)),
    ("cloud.migrate_tenant", "cloud", ("repro.cloud:Cloud.migrate_tenant",)),
    ("cloud.shutdown_tenant", "cloud",
     ("repro.cloud:Cloud.shutdown_tenant",)),
    ("cloud.monitor", "cloud",
     _methods("repro.cloud:Cloud", ("attest_host", "perf_stats",
                                    "inventory"))),
    ("fleet.run_fleet", "fleet", ("repro.fleet.scenarios:run_fleet",)),
    ("fleet.drive_region", "fleet", ("repro.fleet.scenarios:drive_region",)),
    ("fleet.build", "fleet", ("repro.fleet.scenarios:build_region",)),
    ("fleet.run", "fleet", ("repro.fleet.model:FleetModel.run",)),
    ("fleet.summarize", "fleet", ("repro.fleet.scenarios:summarize",)),
    ("runner.execute", "runner", ("repro.runner.executor:execute",)),
)

LAYER_OF = {name: layer for name, layer, _ in BOUNDARIES}

#: the FID003 layers the benchmark reports, in stack order
LAYERS = ("common", "hw", "runner", "sev", "xen", "core", "system",
          "workloads", "cloud", "fleet", "eval")


class Tracer:
    """The span stack, online self-time totals and the kept spans."""

    def __init__(self):
        self.pid = os.getpid()
        self.active = False
        self.op = -1
        self.reset()

    def reset(self):
        self.stack = []
        self.spans = []
        self.worker_spans = []
        self.recorded = 0
        self.next_sid = 0
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.run_reports = []
        self.negative = 0          # spans whose children outlast them
        self.hook_failures = {}    # span -> why its counts are missing

    def enter(self, name):
        sid = self.next_sid
        self.next_sid = sid + 1
        parent = self.stack[-1][0] if self.stack else -1
        frame = [sid, name, parent, time.perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def exit(self, frame):
        end = time.perf_counter()
        self.stack.pop()
        duration = end - frame[3]
        if duration < frame[4]:
            self.negative += 1
        self.self_s[frame[1]] += duration - frame[4]
        self.calls[frame[1]] += 1
        if self.stack:
            self.stack[-1][4] += duration
        self.recorded += 1
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame[0], frame[1], frame[2], self.op,
                               frame[3], end))

    def export(self):
        """What a pool worker sends home: its spans, flat."""
        return {"pid": os.getpid(), "recorded": self.recorded,
                "spans": [(name, start, end)
                          for _, name, _, _, start, end in self.spans]}

    def adopt(self, frame, payloads):
        """Fold pool-worker spans into the open ``runner.execute`` frame.

        Each instant of the frame is shared evenly among the innermost
        worker spans active at that instant; the frame keeps the rest
        (spawn, dispatch, result transport, idle polling) as its own
        self time.
        """
        segments = []
        for payload in payloads:
            segments.extend(innermost_segments(payload["spans"]))
            self.recorded += payload["recorded"]
            for name, start, end in payload["spans"]:
                self.calls[name] += 1
                if len(self.worker_spans) < SPAN_CAP:
                    self.worker_spans.append((payload["pid"], name,
                                              self.op, start, end))
        shares, busy = share_out(segments, frame[3], time.perf_counter())
        for name, seconds in shares.items():
            self.self_s[name] += seconds
        frame[4] += busy


def innermost_segments(spans):
    """``[(t0, t1, name)]`` pieces of one worker's timeline, each naming
    the innermost span open over it (spans nest properly per process)."""
    out = []
    stack = []
    cursor = None
    for start, end, name in sorted(((s, e, n) for n, s, e in spans),
                                   key=lambda span: (span[0], -span[1])):
        while stack and stack[-1][1] <= start:
            closing = stack.pop()
            if cursor < closing[1]:
                out.append((cursor, closing[1], closing[2]))
            cursor = closing[1]
        if stack and cursor < start:
            out.append((cursor, start, stack[-1][2]))
        stack.append((start, end, name))
        cursor = start
    while stack:
        closing = stack.pop()
        if cursor < closing[1]:
            out.append((cursor, closing[1], closing[2]))
        cursor = closing[1]
    return out


def share_out(segments, lo, hi):
    """Split ``[lo, hi]`` among overlapping segments: each elementary
    interval goes in equal parts to the segments covering it.  Returns
    ``({name: seconds}, seconds covered by any segment)``."""
    events = []
    for t0, t1, name in segments:
        t0, t1 = max(t0, lo), min(t1, hi)
        if t0 < t1:
            events.append((t0, 1, name))
            events.append((t1, -1, name))
    events.sort(key=lambda event: (event[0], event[1]))
    shares = defaultdict(float)
    active = defaultdict(int)
    depth = 0
    busy = 0.0
    previous = None
    for at, step, name in events:
        if depth and previous is not None and at > previous:
            width = (at - previous) / depth
            for active_name, count in active.items():
                if count:
                    shares[active_name] += width * count
            busy += at - previous
        active[name] += step
        depth += step
        previous = at
    return dict(shares), busy


def _wrap(tracer, name, fn, hook):
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
            if hook is not None:
                try:
                    hook(tracer, frame, result)
                except COUNTER_ERRORS as exc:
                    tracer.hook_failures.setdefault(name, _reason(exc))
            return result
        finally:
            tracer.exit(frame)
    return functools.update_wrapper(traced, fn)


def _wrap_worker_root(tracer, name, fn, hook):
    """A pool shard's entry point: in a worker process it starts a fresh
    trace and attaches it to the shard's return value."""
    traced_here = _wrap(tracer, name, fn, hook)

    def traced(*args, **kwargs):
        if not tracer.active or os.getpid() == tracer.pid:
            return traced_here(*args, **kwargs)
        tracer.reset()
        result = traced_here(*args, **kwargs)
        try:
            setattr(result, WORKER_ATTR, tracer.export())
        except AttributeError:
            pass      # reported as missing worker spans by the parent
        return result
    return functools.update_wrapper(traced, fn)


def _adopt_workers(tracer, frame, run_report):
    """``runner.execute`` hook: collect worker traces from the shard
    values and keep the report's public sharding counters."""
    tracer.run_reports.append(run_report)
    payloads = []
    for result in run_report.results:
        payload = getattr(result.value, WORKER_ATTR, None)
        if payload is not None:
            delattr(result.value, WORKER_ATTR)
            payloads.append(payload)
    if run_report.jobs > 1:
        tracer.counts["runner.pooled_shards"] += len(run_report.results)
        tracer.counts["runner.traced_shards"] += len(payloads)
    tracer.adopt(frame, payloads)


def _count_cache_model(tracer, frame, result):
    misses, accesses = result
    tracer.counts["workloads.cache_model.lines"] += accesses


HOOKS = {
    "workloads.cache_model": _count_cache_model,
    "runner.execute": _adopt_workers,
}
WORKER_ROOTS = frozenset({"fleet.drive_region"})


def _reason(exc):
    return "%s: %s" % (type(exc).__name__, exc)


def read_counter(read, missing, metrics, what):
    """``read()``; if a refactor renamed or reshaped what it reads,
    None, with each of ``metrics`` marked missing in ``missing``."""
    try:
        return read()
    except COUNTER_ERRORS as exc:
        for name in metrics:
            missing.setdefault(name, "%s unreadable: %s" % (
                what, _reason(exc)))
        return None


def _resolve(target):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    return owner, attr, inspect.getattr_static(owner, attr)


class Installation:
    """The wrappers in place, and how to take them out again."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.undo = []
        self.missing = {}      # target -> reason
        self.installed = defaultdict(list)

    def install(self, name, target):
        try:
            owner, attr, raw = _resolve(target)
        except (ImportError, AttributeError) as exc:
            self.missing[target] = _reason(exc)
            return
        kind = None
        fn = raw
        if isinstance(raw, (classmethod, staticmethod)):
            kind, fn = type(raw), raw.__func__
        if not inspect.isfunction(fn):
            self.missing[target] = "not a plain function (%s)" \
                % type(raw).__name__
            return
        if inspect.isgeneratorfunction(fn):
            self.missing[target] = "a generator function; a call wrapper " \
                                   "cannot time its body"
            return
        make = _wrap_worker_root if name in WORKER_ROOTS else _wrap
        wrapper = make(self.tracer, name, fn, HOOKS.get(name))
        installed = kind(wrapper) if kind else wrapper
        self._set(owner, attr, raw, installed)
        if inspect.ismodule(owner):
            # Rebind every loaded module that imported the function by
            # name, so callers holding their own reference see it too.
            for module in list(sys.modules.values()):
                if module is owner or not getattr(
                        module, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self._set(module, key, raw, installed)
        self.installed[name].append(target)

    def _set(self, owner, attr, raw, installed):
        own = not inspect.isclass(owner) or attr in vars(owner)
        self.undo.append((owner, attr, raw, own))
        setattr(owner, attr, installed)

    def uninstall(self):
        for owner, attr, raw, own in reversed(self.undo):
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
        self.undo = []

    def missing_boundaries(self):
        """Span names none of whose targets could be wrapped."""
        return sorted(name for name, _, _ in BOUNDARIES
                      if not self.installed.get(name))


def install(tracer):
    installation = Installation(tracer)
    for name, _layer, targets in BOUNDARIES:
        for target in targets:
            installation.install(name, target)
    return installation


def layer_self_times(tracer):
    out = {layer: 0.0 for layer in LAYERS}
    for name, seconds in tracer.self_s.items():
        out[LAYER_OF[name]] += seconds
    return out
