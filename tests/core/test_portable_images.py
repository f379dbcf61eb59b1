"""Tests for portable encrypted images over the customized-key
extension — Section 8's fix for single-machine image sealing."""

import pytest

from repro.common.errors import ReproError, SevError
from repro.core.hwext import (
    boot_portable_guest,
    prepare_portable_image,
    wrap_gek_for_platform,
)
from repro.core.lifecycle import read_kernel_payload
from repro.system import GuestOwner, System


@pytest.fixture
def owner():
    return GuestOwner(seed=0x6EC)


@pytest.fixture
def portable(owner):
    return prepare_portable_image(owner, b"portable app v2")


class TestImagePreparation:
    def test_image_is_ciphertext(self, owner, portable):
        image, gek = portable
        blob = b"".join(ct for _, ct in image.records)
        assert b"portable app v2" not in blob
        assert owner.kblk not in blob

    def test_single_image_many_wraps(self, owner, portable):
        _, gek = portable
        a = System.create(fidelius=True, frames=1024, seed=1)
        b = System.create(fidelius=True, frames=1024, seed=2)
        wrap_a = wrap_gek_for_platform(owner, gek,
                                       a.firmware.platform_public_key)
        wrap_b = wrap_gek_for_platform(owner, gek,
                                       b.firmware.platform_public_key)
        assert wrap_a != wrap_b  # per-platform wrapping of the same key


class TestPortableBoot:
    def test_same_image_boots_on_two_machines(self, owner, portable):
        """The Section 8 payoff: one image, two hosts — impossible with
        the SEND-sealed flow (see test_image_sealed_to_one_machine)."""
        image, gek = portable
        for seed in (11, 12):
            system = System.create(fidelius=True, frames=2048, seed=seed)
            wrapped = wrap_gek_for_platform(
                owner, gek, system.firmware.platform_public_key)
            domain, ctx = boot_portable_guest(
                system.fidelius, "portable", image, wrapped,
                owner.dh.public, owner.nonce, guest_frames=32)
            assert read_kernel_payload(ctx, 15) == b"portable app v2"
            assert domain in system.fidelius.protected_domains

    def test_wrong_platform_wrap_fails(self, owner, portable):
        """A GEK wrapped for another platform fails closed, before the
        target host has built a domain for it."""
        from repro.core.invariants import check_invariants
        image, gek = portable
        a = System.create(fidelius=True, frames=2048, seed=21)
        b = System.create(fidelius=True, frames=2048, seed=22)
        wrapped_for_a = wrap_gek_for_platform(
            owner, gek, a.firmware.platform_public_key)
        before = dict(b.hypervisor.domains)
        with pytest.raises(SevError, match="key unwrap failed"):
            boot_portable_guest(b.fidelius, "x", image, wrapped_for_a,
                                owner.dh.public, owner.nonce,
                                guest_frames=32)
        assert b.hypervisor.domains == before
        assert check_invariants(b) == []

    def test_invalid_owner_public_creates_no_domain(self, owner, portable):
        from repro.core.invariants import check_invariants
        image, gek = portable
        system = System.create(fidelius=True, frames=2048, seed=26)
        wrapped = wrap_gek_for_platform(
            owner, gek, system.firmware.platform_public_key)
        before = dict(system.hypervisor.domains)
        with pytest.raises(SevError, match="invalid DH public value"):
            boot_portable_guest(system.fidelius, "x", image, wrapped,
                                1, owner.nonce, guest_frames=32)
        assert system.hypervisor.domains == before
        assert check_invariants(system) == []

    def test_tampered_image_fails_measurement(self, owner, portable):
        import dataclasses
        image, gek = portable
        system = System.create(fidelius=True, frames=2048, seed=23)
        wrapped = wrap_gek_for_platform(
            owner, gek, system.firmware.platform_public_key)
        index, ct = image.records[0]
        evil = ((index, bytes([ct[0] ^ 1]) + ct[1:]),) + image.records[1:]
        image = dataclasses.replace(image, records=evil)
        with pytest.raises(ReproError):
            boot_portable_guest(system.fidelius, "x", image, wrapped,
                                owner.dh.public, owner.nonce,
                                guest_frames=32)

    def test_policy_applies_to_portable_guests(self):
        from repro.sev.state import POLICY_NODBG
        owner = GuestOwner(seed=0x6ED, policy=POLICY_NODBG)
        image, gek = prepare_portable_image(owner, b"locked down")
        system = System.create(fidelius=True, frames=2048, seed=24)
        wrapped = wrap_gek_for_platform(
            owner, gek, system.firmware.platform_public_key)
        domain, _ = boot_portable_guest(
            system.fidelius, "locked", image, wrapped,
            owner.dh.public, owner.nonce, guest_frames=32)
        assert system.firmware.guest_policy(domain.sev_handle) \
            & POLICY_NODBG

    def test_guest_memory_protected_after_portable_boot(self, owner,
                                                        portable):
        from repro.common.errors import PolicyViolation
        image, gek = portable
        system = System.create(fidelius=True, frames=2048, seed=25)
        wrapped = wrap_gek_for_platform(
            owner, gek, system.firmware.platform_public_key)
        domain, ctx = boot_portable_guest(
            system.fidelius, "p", image, wrapped, owner.dh.public,
            owner.nonce, guest_frames=32)
        with pytest.raises(PolicyViolation):
            system.machine.cpu.load(
                system.hypervisor.guest_frame_hpfn(domain, 0) * 4096, 8)
