"""Shared fixtures for the test suite."""

import pytest

from repro.common import crypto, state_registry
from repro.hw import Machine
from repro.sev import SevFirmware


@pytest.fixture
def machine():
    m = Machine(frames=512, seed=0xC0FFEE)
    m.build_host_address_space()
    return m


@pytest.fixture
def firmware(machine):
    fw = SevFirmware(machine)
    fw.init()
    return fw


@pytest.fixture
def modexps(monkeypatch):
    """Every DH exponentiation the crypto module runs, as ``(base,
    exponent)`` tuples, whether a fixed-base table or ``pow`` serves it.
    The tables start empty (through their registered reset), so no test
    sees tables an earlier one left behind."""
    entry = state_registry.lookup("repro.common.crypto", "_dh_tables")
    getattr(crypto, entry.reset)()
    calls = []
    dh_pow = crypto._dh_pow

    def counting_dh_pow(base, exponent):
        calls.append((base, exponent))
        return dh_pow(base, exponent)

    monkeypatch.setattr(crypto, "_dh_pow", counting_dh_pow)
    return calls
