"""Injectors: arm a :class:`~repro.faults.plan.FaultPlan` on live objects.

All arming is *instance-level*: the wrapper shadows the original bound
method on one object and delegates to it, so product classes carry no
fault hooks at all (fidelint FID009 enforces this).  ``disarm()``
deletes the shadowing attributes, restoring the pristine class methods.

Armed boundaries:

* ``Fidelius.firmware_call`` — any SEV command can fail with an
  ``INJECTED_FAULT`` :class:`~repro.common.errors.SevError`;
* ``MemoryController.dma_read`` / ``dma_write`` — a DMA transaction can
  flip a byte or be dropped on the bus;
* ``AttestationAuthority.quote`` — a quote can come back with a garbled
  signature or a stale nonce;
* ``BlkRing.pop_request`` / ``push_response`` — a PV-IO ring slot can be
  dropped or duplicated.

Every firing is appended to ``fired`` with its site, occurrence index
and action; :func:`schedule_bytes` serializes the combined log so two
runs of the same seed can be compared byte for byte.
"""

from repro.common.errors import SevError
from repro.core.attestation import Quote

#: Firmware status code carried by every injected command failure.
INJECTED_STATUS = "INJECTED_FAULT"

#: The stale nonce an ``attest.quote stale`` fault replays.
STALE_NONCE = bytes(16)


class FireWindow:
    """Admit only a contiguous slice of a run's would-be fault firings.

    The bisector (:mod:`repro.faults.bisect`) narrows a failing soak
    down to a minimal fault window by re-running with
    ``FireWindow(skip, limit)``: hits with global index < ``skip`` or
    >= ``limit`` are *suppressed* — they still consume the spec budget,
    still advance occurrence counters and still draw from the RNG (the
    trigger schedule stays replay-identical), but their action is not
    applied and they stay out of the injector's ``fired`` log.  One
    window is shared by every injector of a run, so the index is the
    chronological firing order across the whole fleet.
    """

    def __init__(self, skip=0, limit=None):
        self.skip = skip
        self.limit = limit
        #: Hits seen so far across every injector sharing this window.
        self.seen = 0

    def admit(self):
        index = self.seen
        self.seen += 1
        if index < self.skip:
            return False
        return self.limit is None or index < self.limit


class HostInjector:
    """Arms one host's boundaries; deterministic given the host's RNG."""

    def __init__(self, plan, machine, label="host"):
        self.plan = plan
        self.machine = machine
        self.label = label
        #: Chronological firing log: (label, site, occurrence, action).
        self.fired = []
        #: Shared admission window, or None for fire-everything.
        self.window = None
        self._counts = {}
        self._budget = {i: spec.count for i, spec in enumerate(plan.specs)}
        self._restorers = []
        self._dup_request = None

    # -- trigger evaluation ------------------------------------------------------

    def fire(self, site):
        """The action to apply at this call of ``site``, or None.

        Counts every call per site; nth-triggers compare against that
        counter, probability-triggers draw from the machine's RNG so the
        whole schedule replays from the seeds alone.
        """
        occurrence = self._counts.get(site, 0) + 1
        self._counts[site] = occurrence
        for index, spec in self.plan.for_site(site):
            if self._budget[index] <= 0:
                continue
            if spec.nth:
                hit = occurrence == spec.nth
            else:
                hit = self.machine.rng.random() < spec.probability
            if hit:
                self._budget[index] -= 1
                if self.window is not None and not self.window.admit():
                    return None
                self.fired.append((self.label, site, occurrence,
                                   spec.action))
                return spec.action
        return None

    def _flip(self, data):
        """Deterministically corrupt one byte of ``data``."""
        if not data:
            return data
        index = self.machine.rng.randrange(len(data))
        out = bytearray(data)
        out[index] ^= 0x40
        return bytes(out)

    # -- arming ------------------------------------------------------------------

    def _shadow(self, obj, attr, wrapper):
        setattr(obj, attr, wrapper)
        self._restorers.append(lambda: delattr(obj, attr))

    def _mark(self, obj):
        if getattr(obj, "_fault_injector", None) is None:
            setattr(obj, "_fault_injector", self)
            self._restorers.append(lambda: delattr(obj, "_fault_injector"))

    def arm_fidelius(self, fidelius):
        """Arm the SEV command boundary (``Fidelius.firmware_call``)."""
        original = fidelius.firmware_call
        injector = self

        def firmware_call(method, *args, **kwargs):
            action = injector.fire("firmware." + method)
            if action == "error":
                raise SevError(INJECTED_STATUS,
                               "injected failure of SEV command %s"
                               % method.upper())
            return original(method, *args, **kwargs)

        self._shadow(fidelius, "firmware_call", firmware_call)
        self._mark(fidelius)
        return self

    def arm_memctrl(self, memctrl):
        """Arm the DMA port (bit flips and dropped bus transactions)."""
        orig_read = memctrl.dma_read
        orig_write = memctrl.dma_write
        injector = self

        def dma_read(pa, length):
            action = injector.fire("dma.read")
            if action == "drop":
                return bytes(length)
            data = orig_read(pa, length)
            if action == "flip":
                return injector._flip(data)
            return data

        def dma_write(pa, data):
            action = injector.fire("dma.write")
            if action == "drop":
                return None
            if action == "flip":
                data = injector._flip(bytes(data))
            return orig_write(pa, data)

        self._shadow(memctrl, "dma_read", dma_read)
        self._shadow(memctrl, "dma_write", dma_write)
        self._mark(memctrl)
        return self

    def arm_attestation(self, authority):
        """Arm the quote engine (garbage signatures, stale nonces)."""
        original = authority.quote
        injector = self

        def quote(fidelius, nonce):
            action = injector.fire("attest.quote")
            good = original(fidelius, nonce)
            if action == "garbage":
                return Quote(good.fidelius_measurement, good.xen_measurement,
                             good.nonce, injector._flip(good.signature))
            if action == "stale":
                return Quote(good.fidelius_measurement, good.xen_measurement,
                             STALE_NONCE, good.signature)
            return good

        self._shadow(authority, "quote", quote)
        self._mark(authority)
        return self

    def arm_ring(self, ring):
        """Arm a PV-IO ring (dropped and duplicated slots)."""
        orig_pop = ring.pop_request
        orig_push = ring.push_response
        injector = self

        def pop_request():
            if injector._dup_request is not None:
                request = injector._dup_request
                injector._dup_request = None
                return request
            request = orig_pop()
            if request is None:
                return None
            action = injector.fire("ring.pop_request")
            if action == "drop":
                return orig_pop()
            if action == "dup":
                injector._dup_request = request
            return request

        def push_response(response):
            action = injector.fire("ring.push_response")
            if action == "drop":
                return None
            orig_push(response)
            if action == "dup":
                orig_push(response)
            return None

        self._shadow(ring, "pop_request", pop_request)
        self._shadow(ring, "push_response", push_response)
        self._mark(ring)
        return self

    # -- teardown ----------------------------------------------------------------

    def disarm(self):
        """Restore every wrapped instance to its pristine class methods."""
        while self._restorers:
            self._restorers.pop()()

    def schedule_lines(self):
        return ["%s %s #%d %s" % entry for entry in self.fired]


def arm_system(system, plan, label="host", window=None):
    """Arm one host: firmware commands and the DMA port."""
    injector = HostInjector(plan, system.machine, label=label)
    injector.window = window
    injector.arm_fidelius(system.fidelius)
    injector.arm_memctrl(system.machine.memctrl)
    return injector


def arm_cloud(cloud, plan, window=None):
    """Arm a whole fleet: one injector per host (each draws trigger
    probabilities from its own machine's seeded RNG), attestation
    included.  Returns the injectors in host order.  ``window`` (a
    :class:`FireWindow`) is shared by every injector when given."""
    injectors = []
    for index in range(len(cloud)):
        injector = arm_system(cloud.host(index), plan,
                              label="host%d" % index, window=window)
        injector.arm_attestation(cloud.authority(index))
        injectors.append(injector)
    return injectors


def schedule_bytes(injectors):
    """The combined fault schedule, serialized for byte-for-byte
    comparison across runs of the same seed."""
    lines = []
    for injector in injectors:
        lines.extend(injector.schedule_lines())
    return "\n".join(lines).encode()
