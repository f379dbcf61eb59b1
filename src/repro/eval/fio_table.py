"""Table 3: fio over the PV block path, Xen vs Fidelius + AES-NI."""

from dataclasses import dataclass

from repro.core.io_protect import SoftwareIoEncoder
from repro.core.lifecycle import read_embedded_kblk
from repro.system import GuestOwner, System
from repro.workloads.fio import FioRunner, TABLE3_SPECS

#: The three I/O protection paths a Fidelius fio guest can take
#: (Section 7.2); each builds its encoder for a booted guest.
IO_ENCODERS = {
    "aes-ni": lambda system, domain, ctx: system.aesni_encoder_for(ctx),
    "sev-api": lambda system, domain, ctx: system.sev_encoder_for(
        domain, ctx, pages=16),
    "software": lambda system, domain, ctx: SoftwareIoEncoder(
        read_embedded_kblk(ctx), system.machine.cycles),
}


@dataclass(frozen=True)
class Table3Row:
    name: str
    xen_throughput: float        # bytes per kilocycle
    fidelius_throughput: float

    @property
    def slowdown_pct(self):
        return 100.0 * (1.0 - self.fidelius_throughput / self.xen_throughput)


def _baseline_runner(frames, seed):
    system = System.create(fidelius=False, frames=frames, seed=seed)
    domain, ctx = system.create_plain_guest("fio", guest_frames=96)
    return FioRunner(system, domain, ctx, encoder=None, seed=seed)


def fidelius_runner(frames, seed, encoder="aes-ni"):
    """A fio runner on a protected guest of a fresh Fidelius host, its
    I/O protected by ``IO_ENCODERS[encoder]``."""
    system = System.create(fidelius=True, frames=frames, seed=seed)
    owner = GuestOwner(seed=seed)
    domain, ctx = system.boot_protected_guest(
        "fio", owner, payload=b"fio guest", guest_frames=96)
    return FioRunner(system, domain, ctx,
                     encoder=IO_ENCODERS[encoder](system, domain, ctx),
                     seed=seed)


def run_table3(frames=4096, seed=0xF10):
    """All four rows, each on fresh hosts with matching RNG streams."""
    rows = []
    for spec in TABLE3_SPECS:
        baseline = _baseline_runner(frames, seed)
        fidelius = fidelius_runner(frames, seed)
        rows.append(Table3Row(
            name=spec.name,
            xen_throughput=baseline.throughput(spec),
            fidelius_throughput=fidelius.throughput(spec),
        ))
    return rows
