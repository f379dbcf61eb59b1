"""Shared fixtures for the test suite."""

import builtins

import pytest

from repro.common import crypto
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
    """Every ``pow`` the crypto module runs (its DH modexps), as argument
    tuples."""
    calls = []

    def counting_pow(*args):
        calls.append(args)
        return builtins.pow(*args)

    monkeypatch.setattr(crypto, "pow", counting_pow, raising=False)
    return calls
