"""The design ablations DESIGN.md calls out, A2-A4.

A1 is ``test_experiments.py``'s ``test_cr3_switch_alternative_far_costlier``
and A5 is ``tests/core/test_fidelius_on_es.py``'s ``TestCostSaving``.
"""

from repro.common.constants import GATE1_CYCLES, SHADOW_CHECK_CYCLES
from repro.eval.ablations import (
    io_encoder_throughput,
    npt_sweep_costs,
    vmcb_accesses_per_hypercall,
)


def test_a2_strict_vmcb_write_protection_costs_more_than_shadowing():
    """Section 5.1: a type 1 gate per VMCB access would cost more than
    one shadow round trip per exit."""
    assert vmcb_accesses_per_hypercall() * GATE1_CYCLES > SHADOW_CHECK_CYCLES


def test_a3_prepopulated_npt_keeps_fills_off_the_hot_path():
    """Section 4.3.4: with Xen's batched prepopulation a write to every
    guest frame takes no NPT fill, and costs less than lazy fill."""
    prepopulated = npt_sweep_costs(lazy_npt=False)
    lazy = npt_sweep_costs(lazy_npt=True)
    assert prepopulated.runtime_npt_fill_cycles == 0
    assert lazy.runtime_npt_fill_cycles > 0
    assert prepopulated.runtime_cycles < lazy.runtime_cycles


def test_a4_software_io_crypto_is_catastrophic_sev_api_competitive():
    """Section 7.2: on seq-read the SEV-API path keeps more than half of
    AES-NI's throughput; software crypto keeps less than half."""
    throughput = io_encoder_throughput()
    assert throughput["software"] < 0.5 * throughput["aes-ni"]
    assert throughput["sev-api"] > 0.5 * throughput["aes-ni"]
