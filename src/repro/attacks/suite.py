"""The full attack matrix: every attack against both configurations.

Reproduces the claim structure of the paper's Section 6: each attack
succeeds against the SEV-only baseline exactly when the paper says the
surface exists, and is blocked under Fidelius exactly when the paper
claims the defence — with the two honest exceptions the paper itself
concedes to hardware (DMA replay and Rowhammer, Section 8).
"""

from dataclasses import dataclass

from repro.attacks import control, grants, io, keys, memory, physical, state
from repro.runner import WorkUnit, execute
from repro.system import System

#: Every registered attack, in a stable presentation order.
ALL_ATTACKS = [
    state.register_steal,
    state.register_tamper,
    state.vmcb_read_guest_state,
    state.vmcb_disable_protection,
    state.vmcb_rip_hijack,
    state.iago_return_value,
    memory.hypervisor_direct_read,
    memory.inter_vm_remap_cache_leak,
    memory.gate_laundered_remap,
    memory.cpu_ciphertext_replay,
    memory.dma_ciphertext_replay,
    keys.handle_asid_keyshare,
    keys.sev_command_forgery,
    keys.dbg_decrypt_abuse,
    keys.sev_metadata_probe,
    grants.grant_permission_widening,
    grants.grant_redirect_to_conspirator,
    grants.grant_forgery,
    io.driver_domain_io_snoop,
    io.disk_at_rest_theft,
    io.dma_buffer_snoop,
    control.clear_wp_and_rewrite_npt,
    control.rop_to_monopolized_instruction,
    control.wrmsr_disable_nx,
    control.forged_vmcb_vmrun,
    control.exec_injected_code,
    physical.cold_boot_dump,
    physical.rowhammer_bit_flip,
]


@dataclass(frozen=True)
class MatrixRow:
    name: str
    paper_ref: str
    baseline_succeeded: bool
    fidelius_succeeded: bool
    fidelius_blocked_by: str
    expected_baseline: bool
    expected_fidelius_blocked: bool
    iommu_succeeded: bool = None  # only when the sweep includes it

    @property
    def as_expected(self):
        baseline_ok = self.baseline_succeeded == self.expected_baseline
        fidelius_ok = (not self.fidelius_succeeded) == \
            self.expected_fidelius_blocked
        return baseline_ok and fidelius_ok


def _fresh_system(protected, seed, iommu=False):
    return System.create(fidelius=protected, frames=2048, seed=seed,
                         iommu=iommu)


def _matrix_row(index, attack_fn, include_iommu):
    """One attack case against fresh hosts — the shardable work unit.

    Each case builds its own seeded systems, so the matrix is a list of
    shared-nothing simulations the runner can spread across workers.
    """
    baseline = attack_fn(_fresh_system(False, seed=1000 + index))
    fidelius = attack_fn(_fresh_system(True, seed=2000 + index))
    iommu_succeeded = None
    if include_iommu:
        iommu_result = attack_fn(
            _fresh_system(True, seed=3000 + index, iommu=True))
        iommu_succeeded = iommu_result.succeeded
    return MatrixRow(
        name=attack_fn.attack_name,
        paper_ref=attack_fn.paper_ref,
        baseline_succeeded=baseline.succeeded,
        fidelius_succeeded=fidelius.succeeded,
        fidelius_blocked_by=fidelius.blocked_by,
        expected_baseline=attack_fn.baseline_succeeds,
        expected_fidelius_blocked=attack_fn.fidelius_blocks,
        iommu_succeeded=iommu_succeeded,
    )


def run_matrix(frames=2048, attacks=None, include_iommu=False, jobs=1):
    """Run every attack against a fresh baseline and a fresh Fidelius
    host; with ``include_iommu`` a third column runs against a Fidelius
    host with the IOMMU extension armed.  Returns :class:`MatrixRow`\\ s,
    always in registration order — attack cases shard across ``jobs``
    workers and the runner re-sorts the rows, so the printed matrix is
    byte-identical to a serial run."""
    units = [WorkUnit.of(index, _matrix_row, index, attack_fn,
                         include_iommu)
             for index, attack_fn in enumerate(attacks or ALL_ATTACKS)]
    return execute(units, jobs=jobs).values()


def format_matrix(rows):
    """A printable security matrix (benchmark E9)."""
    with_iommu = any(row.iommu_succeeded is not None for row in rows)
    columns = "%-34s %-10s %-10s" + ("%-10s " if with_iommu else "") \
        + "%-24s %s"
    header_fields = ["attack", "baseline", "fidelius"]
    if with_iommu:
        header_fields.append("+iommu")
    header_fields += ["blocked by", "as expected"]
    header = columns % tuple(header_fields)
    lines = [header, "-" * len(header)]
    for row in rows:
        fields = [
            row.name,
            "pwned" if row.baseline_succeeded else "held",
            "pwned" if row.fidelius_succeeded else "blocked",
        ]
        if with_iommu:
            fields.append("-" if row.iommu_succeeded is None
                          else ("pwned" if row.iommu_succeeded
                                else "blocked"))
        fields += [row.fidelius_blocked_by or "-",
                   "yes" if row.as_expected else "NO"]
        lines.append(columns % tuple(fields))
    return "\n".join(lines)
