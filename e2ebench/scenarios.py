"""The four closed-loop workloads.

Each workload builds a session from the seed (its set-up) and hands the
harness one *round* at a time: a list of ``(kind, op)`` pairs whose
composition is fixed and whose order and targets come from the seed.
Measuring whole rounds keeps the op mix identical from run to run, so
the latency percentiles compare like with like.  A session also reports
its simulated statistics over the first ``sim_rounds`` rounds (the sim
window, a fixed amount of work, hence identical across runs at one
seed) and checks the program's outputs after the measured phase.

The sessions drive only public entry points: ``System``, ``Cloud``,
``GuestOwner``, ``repro.core.migration``, ``repro.workloads.guestprogs``,
``repro.eval.macro.evaluate_profile`` and ``repro.fleet.run_fleet``.
Calls go through module and class attributes at call time, so the
traced run's wrappers see them.
"""

import dataclasses
import functools
import hashlib
import importlib
import inspect
import json
import random
import time

import ledger
import spans

#: the seed whose fleet campaign is the committed BENCH_fleet.json one
DEFAULT_SEED = 0


class Workload:
    """What every workload declares besides its session."""

    def __init__(self, root):
        self.root = root


class Batch:
    """An op that completed several workload ops at once (a fleet
    campaign's events), with the latency samples it observed."""

    def __init__(self, count, latencies):
        self.count = count
        self.latencies = latencies


def _yield(ctx):
    from repro.xen import hypercalls as hc
    ctx.hypercall(hc.HC_SCHED_YIELD)


def _machines_tlb(machines):
    return [(m.tlb.hits, m.tlb.misses, m.tlb.evictions) for m in machines]


#: the per-layer metrics each modelled counter feeds; a read that fails
#: marks them missing
LEDGER_METRICS = ("hw.sim_cycles", "xen.sim_cycles", "core.sim_cycles",
                  "core.gate_crossings", "core.shadow_roundtrips",
                  "hw.memctrl.plaintext_hit_ratio", "sim.cycles_per_op",
                  "sim.unmapped_cycles")
TLB_METRICS = ("hw.tlb.hit_ratio", "hw.tlb.evictions")


class _LedgerSession:
    """Sim-window bookkeeping shared by the two workloads that run real
    hosts: the per-reason ledgers of every host's ``CycleCounter`` and
    the modelled TLB counters, between the start of the measured phase
    and the end of the sim window."""

    def machines(self):
        raise NotImplementedError

    def sim_begin(self):
        machines = self.machines()
        self._sim_missing = {}
        self._sim_ledgers = spans.read_counter(
            lambda: ledger.snapshot([m.cycles for m in machines]),
            self._sim_missing, LEDGER_METRICS, "CycleCounter ledger")
        self._sim_tlb = spans.read_counter(
            lambda: _machines_tlb(machines), self._sim_missing,
            TLB_METRICS, "Tlb counters")

    def sim_end(self, ops):
        machines = self.machines()
        missing = self._sim_missing
        out = {"digest_parts": {}, "cycles": None, "cycles_per_op": None,
               "missing": missing}
        per_host = tlb_now = None
        if self._sim_ledgers is not None:
            per_host = spans.read_counter(
                lambda: ledger.delta(self._sim_ledgers,
                                     [m.cycles for m in machines]),
                missing, LEDGER_METRICS, "CycleCounter ledger")
        if self._sim_tlb is not None:
            tlb_now = spans.read_counter(
                lambda: _machines_tlb(machines), missing, TLB_METRICS,
                "Tlb counters")
        if per_host is not None:
            total = ledger.merged(per_host)
            cycles = sum(c for c, _ in total.values())
            cached = ledger.events(total, "mem-read-cached")
            filled = ledger.events(total, "mem-read-enc")
            out["digest_parts"]["hosts"] = per_host
            out.update({
                "cycles": cycles,
                "cycles_per_op": cycles / ops,
                "ledger": total,
                "layers": ledger.by_layer(total),
                "unmapped_reasons": ledger.unmapped_reasons(total),
                "plaintext_hit_ratio":
                    cached / (cached + filled) if cached + filled else 0.0,
                "gate_crossings": ledger.events(total, *ledger.GATE_REASONS),
                "shadow_roundtrips": ledger.events(total, "shadow-exit"),
            })
        if tlb_now is not None:
            hits, misses, evictions = (
                sum(a[i] - b[i] for a, b in zip(tlb_now, self._sim_tlb))
                for i in range(3))
            out["digest_parts"]["tlb"] = [hits, misses, evictions]
            out["tlb_hit_ratio"] = (hits / (hits + misses)
                                    if hits + misses else 0.0)
            out["tlb_evictions"] = evictions
        out["digest_parts"]["missing"] = sorted(missing)
        return out


# -- paper_figures -------------------------------------------------------------------


class PaperFigures(Workload):
    """Every Fig. 5 / Fig. 6 row and every sensitivity point, one
    ``evaluate_profile`` call per op, in a seeded order per pass."""

    name = "paper_figures"
    sim_rounds = 1
    caches = ("CacheModel: each evaluation builds its own LRU and pre-"
              "touches the 1024-line hot set (warm hot set, empty "
              "streaming region); no machine, TLB or keystream cache runs")

    def setup(self, seed):
        return _Figures(self.root, seed)


class _Figures:
    def __init__(self, root, seed):
        from repro.eval import macro, sensitivity
        from repro.workloads import profiles
        self.macro = macro
        self.sensitivity = sensitivity
        self.reference = {}
        for figure in ("fig5", "fig6"):
            with open(root / "eval-output" / ("%s.json" % figure)) as fh:
                self.reference[figure] = json.load(fh)
        # The sweep shapes are the sensitivity module's own defaults.
        latency = inspect.signature(
            sensitivity.encryption_latency_sweep).parameters
        exit_rate = inspect.signature(sensitivity.exit_rate_sweep).parameters
        rows = []
        for figure, suite in (("fig5", profiles.SPEC_PROFILES),
                              ("fig6", profiles.PARSEC_PROFILES)):
            for profile in suite:
                rows.append((figure, profile.name, profile, ()))
        for name in latency["benchmarks"].default:
            for cycles in latency["latencies"].default:
                rows.append((
                    "sens-latency", "%s@%s" % (name, cycles),
                    profiles.profile_by_name(name),
                    (("instructions", latency["instructions"].default),
                     ("enc_extra_cycles", cycles))))
        base = exit_rate["base_benchmark"].default
        for rate in exit_rate["rates"].default:
            rows.append((
                "sens-exit", "%s@%s" % (base, rate),
                dataclasses.replace(profiles.profile_by_name(base),
                                    vmexit_pki=rate),
                (("instructions", exit_rate["instructions"].default),)))
        self.items = rows
        self.rng = random.Random(seed)
        self.results = {}
        # untimed warm-up: one full-size evaluation of the cheapest row
        macro.evaluate_profile(profiles.profile_by_name("hmmer"))

    def round(self, index):
        order = list(self.items)
        self.rng.shuffle(order)
        return [(item[0], functools.partial(self._evaluate, item))
                for item in order]

    def _evaluate(self, item):
        kind, label, profile, kwargs = item
        result = self.macro.evaluate_profile(profile, **dict(kwargs))
        self.results.setdefault((kind, label), []).append(result)

    def sim_begin(self):
        pass

    def sim_end(self, ops):
        rows = []
        misses = 0
        for kind, label, _, _ in self.items:
            r = self.results[(kind, label)][0]
            misses += r.measured_misses
            rows.append([kind, label, repr(r.xen_cycles),
                         repr(r.fidelius_cycles),
                         repr(r.fidelius_enc_cycles), r.measured_misses,
                         r.accesses])
        return {"digest_parts": {"rows": rows}, "cycles": None,
                "cycles_per_op": None, "cache_model_misses": misses,
                "missing": {}}

    def check(self):
        problems = []
        for (kind, label), results in self.results.items():
            if any(r != results[0] for r in results[1:]):
                problems.append("%s %s: repeated evaluations differ"
                                % (kind, label))
        for figure in ("fig5", "fig6"):
            expected = {row["benchmark"]: row
                        for row in self.reference[figure]}
            firsts = []
            for kind, label, _, _ in self.items:
                if kind != figure:
                    continue
                result = self.results[(kind, label)][0]
                firsts.append(result)
                problems += _row_problems(figure, label, expected.get(label),
                                          result)
            fid, enc = self.macro.average_overheads(firsts)
            avg = expected.get("average", {})
            if (round(fid, 4), round(enc, 4)) != (
                    avg.get("fidelius_overhead_pct"),
                    avg.get("fidelius_enc_overhead_pct")):
                problems.append("%s average differs from the committed "
                                "export" % figure)
        sweeps = {}
        rates = []
        for kind, label, _, kwargs in self.items:
            result = self.results[(kind, label)][0]
            if kind == "sens-latency":
                name, cycles = label.split("@")
                sweeps.setdefault(name, []).append(
                    self.sensitivity.SweepPoint(
                        float(cycles), result.fidelius_enc_overhead_pct
                        - result.fidelius_overhead_pct))
            elif kind == "sens-exit":
                rates.append(result.fidelius_overhead_pct)
        if not self.sensitivity.shape_is_robust(sweeps):
            problems.append("encryption-latency sweep ordering is not "
                            "robust")
        if rates != sorted(rates):
            problems.append("exit-rate sweep overhead is not monotonic")
        return problems


def _row_problems(figure, label, row, result):
    if row is None:
        return ["%s %s: no committed row" % (figure, label)]
    got = (round(result.fidelius_overhead_pct, 4),
           round(result.fidelius_enc_overhead_pct, 4),
           result.measured_misses, result.accesses)
    want = (row["fidelius_overhead_pct"], row["fidelius_enc_overhead_pct"],
            row["measured_misses"], row["accesses"])
    if got != want:
        return ["%s %s: got %r, committed %r" % (figure, label, got, want)]
    return []


# -- tenant_lifecycle ----------------------------------------------------------------


class TenantLifecycle(Workload):
    """A seeded tenant op mix on a 3-host ``Cloud``."""

    name = "tenant_lifecycle"
    sim_rounds = 10
    hosts = 3
    host_frames = 1024
    guest_frames = 32
    population = 6
    disk_sectors = 64
    #: one round: every kind once, migrations twice; launches and
    #: shutdowns balance so the live population stays bounded
    mix = ("launch", "disk_io", "migrate", "migrate", "rotate", "monitor",
           "shutdown")
    caches = ("TLB and plaintext line cache: warm from the set-up's "
              "initial population and one warm-up round; every launch, "
              "migration and rotation starts its guest's TLB state cold")

    def setup(self, seed):
        return _Tenants(self, seed)


class _Tenants(_LedgerSession):
    def __init__(self, spec, seed):
        from repro.cloud import Cloud
        from repro.core import lifecycle, migration
        from repro.system import GuestOwner
        self.spec = spec
        self.seed = seed
        self.lifecycle = lifecycle
        self.migration = migration
        self.GuestOwner = GuestOwner
        self.rng = random.Random(seed ^ 0x7E4A47)
        self.cloud = Cloud(hosts=spec.hosts, frames=spec.host_frames,
                           seed=0xC10D + 16 * seed)
        self.payloads = {}
        self.disk_writes = []
        self.launched = 0
        self.problems = []
        self.top_asid = [0] * spec.hosts
        for _ in range(spec.population):
            self._launch()
        for kind, op in self.round(-1):
            op()

    def machines(self):
        return [host.machine for host in self.cloud.hosts]

    def round(self, index):
        kinds = list(self.spec.mix)
        self.rng.shuffle(kinds)
        return [(kind, getattr(self, "_" + kind)) for kind in kinds]

    def _pick(self):
        return self.rng.choice(sorted(self.cloud.tenants))

    def _note_asid(self, tenant):
        index = tenant.host_index
        self.top_asid[index] = max(self.top_asid[index], tenant.domain.asid)

    def exhausted(self):
        """True when one more round could run a host out of ASIDs: the
        hypervisor hands them out in increasing order and never reuses
        one, so a host runs at most ``MAX_ASID`` SEV guest incarnations
        in its lifetime."""
        from repro.common.constants import MAX_ASID
        need = sum(1 for kind in self.spec.mix
                   if kind in ("launch", "migrate", "rotate"))
        return max(self.top_asid) + need > MAX_ASID

    def _launch(self):
        name = "t%05d" % self.launched
        owner = self.GuestOwner(seed=self.seed * 1_000_003 + self.launched)
        self.launched += 1
        payload = b"TENANT-SECRET|%s|seed=%d|" % (name.encode(),
                                                   self.seed) * 4
        self.payloads[name] = payload
        tenant = self.cloud.launch_tenant(name, owner, payload=payload,
                                          guest_frames=self.spec.guest_frames)
        self._note_asid(tenant)
        _yield(tenant.ctx)

    def _disk_io(self):
        """AES-NI PV disk write plus read on a freshly attached device.

        A device is attached per op, as the chaos soak does: a host's
        block back ends share one dom0 mapping window, so only the most
        recently attached device on a host has a correct data path."""
        name = self._pick()
        tenant = self.cloud.tenants[name]
        host = self.cloud.host(tenant.host_index)
        encoder = host.aesni_encoder_for(tenant.ctx)
        disk, frontend, _ = host.attach_disk(
            tenant.domain, tenant.ctx, sectors=self.spec.disk_sectors,
            encoder=encoder)
        sector = self.rng.randrange(self.spec.disk_sectors)
        block = (b"DISK-SECRET|%s|" % name.encode()
                 + self.rng.getrandbits(8 * 512).to_bytes(512, "little"))
        block = block[:512]
        frontend.write(sector, block)
        got = frontend.read(sector, 1)
        _yield(tenant.ctx)
        self.disk_writes.append((name, disk, encoder, sector, block))
        if got != block:
            self.problems.append("disk block of %s did not read back" % name)

    def _migrate(self):
        name = self._pick()
        tenant = self.cloud.migrate_tenant(name)
        self._note_asid(tenant)
        _yield(tenant.ctx)

    def _rotate(self):
        """§4.3.6 key rotation: snapshot to the local platform, destroy
        the stopped source, restore under a fresh K_vek and ASID."""
        tenant = self.cloud.tenants[self._pick()]
        host = self.cloud.host(tenant.host_index)
        package = self.migration.snapshot_guest(host.fidelius, tenant.domain)
        host.hypervisor.destroy_domain(tenant.domain)
        domain, ctx = self.migration.restore_guest(host.fidelius, package)
        tenant.domain = domain
        tenant.ctx = ctx
        self._note_asid(tenant)
        _yield(ctx)

    def _monitor(self):
        cloud = self.cloud
        attested = [cloud.attest_host(i) for i in range(len(cloud))]
        cloud.perf_stats()
        inventory = cloud.inventory()
        if not all(attested):
            self.problems.append("monitor: a host failed attestation")
        listed = sorted(n for names in inventory.values() for n in names)
        if listed != sorted(cloud.tenants):
            self.problems.append("monitor: inventory disagrees with the "
                                 "tenant table")

    def _shutdown(self):
        name = self._pick()
        self.cloud.shutdown_tenant(name)

    def check(self):
        from repro.core.invariants import check_invariants
        from repro.eval.security import plaintext_leak_scan
        problems = list(self.problems)
        cloud = self.cloud
        for name, tenant in sorted(cloud.tenants.items()):
            host = cloud.host(tenant.host_index)
            if host.hypervisor.domains.get(tenant.domain.domid) \
                    is not tenant.domain:
                problems.append("tenant %s is not live on host %d"
                                % (name, tenant.host_index))
                continue
            payload = self.payloads[name]
            if self.lifecycle.read_kernel_payload(
                    tenant.ctx, len(payload)) != payload:
                problems.append("tenant %s payload did not read back" % name)
            _yield(tenant.ctx)
        for name, disk, encoder, sector, block in self.disk_writes:
            if encoder.decode_read(disk.raw_sector(sector), sector) != block:
                problems.append("disk block of %s never reached its disk"
                                % name)
        secrets = sorted(self.payloads.items()) + [
            ("disk:%s:%d" % (name, sector), block)
            for name, _, _, sector, block in self.disk_writes]
        for index, host in enumerate(cloud.hosts):
            problems += ["host %d: %s" % (index, v)
                         for v in check_invariants(host)]
            problems += ["host %d: %s" % (index, v)
                         for v in plaintext_leak_scan(host, secrets)]
            if not host.fidelius.verify_audit_chain():
                problems.append("host %d: audit chain does not verify"
                                % index)
        return problems


# -- guest_compute -------------------------------------------------------------------


class GuestCompute(Workload):
    """Booted, protected guests on one Fidelius host, in steady state,
    visited round-robin."""

    name = "guest_compute"
    sim_rounds = 20
    warmup_rounds = 3
    small_pages = 16
    large_pages = 512
    kv_keys = 32
    #: frames per host.  The SEV-API key-value guest has a host of its
    #: own: a host's PV block back ends all map their front end's buffer
    #: at the same dom0 frames, so a second live block device on one
    #: host silently takes over the first one's data path.
    host_frames = (4096, 1024)
    #: (program, host, guest frames), visited in this order every round
    programs = (
        ("crypto_small", 0, 64),
        ("crypto_large", 0, 16 + 512 + 32),
        ("session", 0, 64),
        ("kv_aesni", 0, 64),
        ("kv_sevapi", 1, 64),
    )
    caches = ("keystream, TLB and plaintext line cache: warmed by the "
              "set-up's 3 untimed rounds; crypto_small (16 pages) fits "
              "them, crypto_large (512 pages) is 4x the 8192-line "
              "keystream cache")

    def setup(self, seed):
        return _Guests(self, seed)


class _Guests(_LedgerSession):
    def __init__(self, spec, seed):
        from repro.system import GuestOwner, System
        from repro.workloads import guestprogs
        self.spec = spec
        self.rng = random.Random(seed ^ 0x6C0DE)
        self.systems = [
            System.create(fidelius=True, frames=frames,
                          seed=0x51EF + 16 * seed + index)
            for index, frames in enumerate(spec.host_frames)]
        self.payloads = {}
        self.guests = {}
        for index, (program, host, frames) in enumerate(spec.programs):
            payload = b"GUEST-SECRET|%s|seed=%d|" % (program.encode(),
                                                     seed) * 4
            self.payloads[program] = payload
            system = self.systems[host]
            domain, ctx = system.boot_protected_guest(
                program, GuestOwner(seed=seed * 131 + index),
                payload=payload, guest_frames=frames)
            self.guests[program] = (system, domain, ctx)
            _yield(ctx)
        self.small = guestprogs.CryptoWorker(
            self._ctx("crypto_small"), pages=spec.small_pages, batched=True)
        _yield(self._ctx("crypto_small"))
        self.large = guestprogs.CryptoWorker(
            self._ctx("crypto_large"), pages=spec.large_pages, batched=True)
        _yield(self._ctx("crypto_large"))
        self.session = guestprogs.SessionServer(self._ctx("session"))
        _yield(self._ctx("session"))
        self.stores = {}
        for program in ("kv_aesni", "kv_sevapi"):
            system, domain, ctx = self.guests[program]
            encoder = (system.aesni_encoder_for(ctx)
                       if program == "kv_aesni"
                       else system.sev_encoder_for(domain, ctx))
            _, frontend, _ = system.attach_disk(
                domain, ctx, sectors=256, encoder=encoder)
            self.stores[program] = guestprogs.KeyValueStore(ctx, frontend)
            _yield(ctx)
        self.digests = {"crypto_small": [], "crypto_large": []}
        self.values = {program: {} for program in self.stores}
        self.requests = 0
        self.problems = []
        for _ in range(spec.warmup_rounds):
            for _kind, op in self.round(-1):
                op()

    def _ctx(self, program):
        return self.guests[program][2]

    def machines(self):
        return [system.machine for system in self.systems]

    def round(self, index):
        return [(program, getattr(self, "_" + program))
                for program, _, _ in self.spec.programs]

    def _crypto_small(self):
        self.digests["crypto_small"].append(self.small.round())
        _yield(self._ctx("crypto_small"))

    def _crypto_large(self):
        self.digests["crypto_large"].append(self.large.round())
        _yield(self._ctx("crypto_large"))

    def _session(self):
        handled = self.session.handle_request()
        self.requests += 1
        _yield(self._ctx("session"))
        if handled != self.requests:
            self.problems.append("session counted %d of %d requests"
                                 % (handled, self.requests))

    def _kv(self, program):
        store = self.stores[program]
        key = b"key-%02d" % self.rng.randrange(self.spec.kv_keys)
        value = b"value-%08x|" % self.rng.getrandbits(32) * 8
        store.put(key, value)
        got = store.get(key)
        _yield(self._ctx(program))
        self.values[program][key] = value
        if got != value:
            self.problems.append("%s: %r did not read back" % (program, key))

    def _kv_aesni(self):
        self._kv("kv_aesni")

    def _kv_sevapi(self):
        self._kv("kv_sevapi")

    def check(self):
        from repro.core.invariants import check_invariants
        from repro.core.lifecycle import read_kernel_payload
        from repro.eval.security import plaintext_leak_scan
        problems = list(self.problems)
        for program, pages in (("crypto_small", self.spec.small_pages),
                               ("crypto_large", self.spec.large_pages)):
            if self.digests[program] != _expected_crypto_digests(
                    pages, len(self.digests[program])):
                problems.append("%s: round digests differ from the "
                                "reference model" % program)
        for program, store in self.stores.items():
            for key, value in sorted(self.values[program].items()):
                if store.get(key) != value:
                    problems.append("%s: %r lost its last value"
                                    % (program, key))
            _yield(self._ctx(program))
        for program, (_, _, ctx) in self.guests.items():
            payload = self.payloads[program]
            if read_kernel_payload(ctx, len(payload)) != payload:
                problems.append("%s: payload did not read back" % program)
            _yield(ctx)
        secrets = sorted(self.payloads.items()) + [
            ("%s:%s" % (p, k.decode()), v)
            for p in sorted(self.values)
            for k, v in sorted(self.values[p].items())]
        for index, system in enumerate(self.systems):
            problems += ["host %d: %s" % (index, v)
                         for v in check_invariants(system)]
            problems += ["host %d: %s" % (index, v)
                         for v in plaintext_leak_scan(system, secrets)]
            if not system.fidelius.verify_audit_chain():
                problems.append("host %d: audit chain does not verify"
                                % index)
        return problems


def _expected_crypto_digests(pages, rounds):
    """A pure-Python model of ``CryptoWorker.round``: every page starts
    as ``bytes(range(256))`` repeated; each round hashes every page and
    writes the digest over the page's first 32 bytes."""
    from repro.common.constants import PAGE_SIZE
    memory = [bytearray(bytes(range(256)) * (PAGE_SIZE // 256))
              for _ in range(pages)]
    out = []
    for _ in range(rounds):
        digests = [hashlib.sha256(page).digest() for page in memory]
        for page, digest in zip(memory, digests):
            page[:len(digest)] = digest
        out.append(hashlib.sha256(b"".join(digests)).hexdigest())
    return out


# -- fleet_campaign ------------------------------------------------------------------


class FleetCampaign(Workload):
    """The committed full ``repro.fleet`` campaign through ``run_fleet``
    on the persistent pool; one op is one processed event."""

    name = "fleet_campaign"
    sim_rounds = 1
    jobs = 2
    caches = ("none modelled: the fleet model charges calibrated costs; "
              "each run_fleet call forks a fresh 2-worker pool")

    def setup(self, seed):
        return _Fleet(self.root, seed, self.jobs)


#: the region shard's entry point, and the attribute its CPU time rides
#: home on, attached to the shard's value
SHARD_ENTRY = ("repro.fleet.scenarios", "drive_region")
SHARD_CPU_ATTR = "_e2ebench_shard_cpu_s"


def _time_shard_cpu():
    """Wrap the region shard's entry point so that its value carries the
    CPU time the shard took in the process that ran it.  Pool workers are
    forked, so they run the wrapper too.  Returns why the entry point
    could not be wrapped, or None."""
    module_name, attr = SHARD_ENTRY
    try:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)
    except spans.COUNTER_ERRORS as exc:
        return "%s.%s: %s: %s" % (module_name, attr, type(exc).__name__,
                                  exc)
    if getattr(fn, SHARD_CPU_ATTR, False):
        return None

    def timed(*args, **kwargs):
        t0 = time.process_time()
        value = fn(*args, **kwargs)
        try:
            setattr(value, SHARD_CPU_ATTR, time.process_time() - t0)
        except AttributeError:
            pass      # the parent falls back to the shard's wall time
        return value
    timed = functools.update_wrapper(timed, fn)
    setattr(timed, SHARD_CPU_ATTR, True)
    setattr(module, attr, timed)
    return None


class _Fleet:
    def __init__(self, root, seed, jobs):
        import repro.fleet
        from repro.eval import fleetbench
        self.fleet = repro.fleet
        self.jobs = jobs
        self.seed = seed
        with open(root / "BENCH_fleet.json") as fh:
            self.committed = json.load(fh)["fleet"]
        self.spec = fleetbench.PROFILES["full"]
        if seed != DEFAULT_SEED:
            self.spec = dataclasses.replace(self.spec, seed=seed)
        self.summaries = []
        self.unwrapped = _time_shard_cpu()
        self.wall_shards = 0
        # set-up: one serial run of the fixed smoke profile warms the
        # fleet code paths the same way on every seed.  Serial, because
        # each campaign starts its own pool anyway, and a pooled smoke
        # run's time rides on forks and on the second CPU, which the
        # speed probe does not see (set-up spread 0.55-0.75 pooled,
        # 0.12-0.24 serial, over five runs)
        self.fleet.run_fleet(fleetbench.PROFILES["smoke"], jobs=1)

    def round(self, index):
        return [("campaign", self._campaign)]

    def _campaign(self):
        """One campaign.  Its latency samples are each region shard's
        CPU time in its worker, falling back to the runner's wall time
        for a shard that carries none."""
        run_report, _regions, summary = self.fleet.run_fleet(self.spec,
                                                            jobs=self.jobs)
        self.summaries.append(summary)
        latencies = []
        for result in run_report.results:
            cpu_s = getattr(result.value, SHARD_CPU_ATTR, None)
            if cpu_s is None:
                self.wall_shards += 1
                cpu_s = result.elapsed_s
            latencies.append(cpu_s)
        return Batch(summary["events"], latencies)

    def sim_begin(self):
        pass

    def sim_end(self, ops):
        summary = self.summaries[0]
        missing = {}
        if self.wall_shards:
            for name in ("latency_p50_ms", "latency_tail_ms"):
                missing[name] = "%d shards timed on the wall clock, not " \
                    "in CPU time: %s" % (self.wall_shards, self.unwrapped
                                         or "no CPU time on the value")
        rejected = spans.read_counter(lambda: summary["metrics"]["rejected"],
                                      missing, ("fleet.rejected",),
                                      "fleet summary")
        return {"digest_parts": {"fleet": summary}, "cycles": None,
                "cycles_per_op": None, "fleet_rejected": rejected or 0,
                "missing": missing}

    def check(self):
        problems = []
        digests = {s["digest"] for s in self.summaries}
        if len(digests) != 1:
            problems.append("repeated campaigns digested differently: %s"
                            % sorted(digests))
        pooled = self.summaries[0]
        _, _, serial = self.fleet.run_fleet(self.spec, jobs=1)
        if serial != pooled:
            problems.append("serial digest %s differs from pooled %s"
                            % (serial["digest"], pooled["digest"]))
        if self.seed == DEFAULT_SEED:
            for key in ("digest", "events", "survivors", "metrics"):
                if pooled[key] != self.committed[key]:
                    problems.append("fleet %s differs from BENCH_fleet.json"
                                    % key)
        return problems


WORKLOADS = (PaperFigures, TenantLifecycle, GuestCompute, FleetCampaign)
