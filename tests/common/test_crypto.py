"""Tests for the simulated cryptography primitives."""

import builtins
import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import crypto, state_registry
from repro.common.errors import SevError

KEY_A = b"A" * 16
KEY_B = b"B" * 16


class TestKeystreamCipher:
    def test_roundtrip(self):
        ct = crypto.xex_encrypt(KEY_A, b"tweak", b"hello world")
        assert crypto.xex_decrypt(KEY_A, b"tweak", ct) == b"hello world"

    def test_deterministic(self):
        a = crypto.xex_encrypt(KEY_A, b"t", b"payload")
        b = crypto.xex_encrypt(KEY_A, b"t", b"payload")
        assert a == b

    def test_wrong_key_garbage_not_error(self):
        ct = crypto.xex_encrypt(KEY_A, b"t", b"plaintext!")
        garbled = crypto.xex_decrypt(KEY_B, b"t", ct)
        assert garbled != b"plaintext!"

    def test_wrong_tweak_garbage(self):
        ct = crypto.xex_encrypt(KEY_A, b"t1", b"plaintext!")
        assert crypto.xex_decrypt(KEY_A, b"t2", ct) != b"plaintext!"

    def test_offset_slices_match_full_encryption(self):
        full = crypto.xex_encrypt(KEY_A, b"t", b"0123456789abcdef" * 8)
        part = crypto.xex_encrypt(KEY_A, b"t", b"456789", offset=4)
        assert full[4:10] == part

    def test_offset_across_digest_block_boundary(self):
        data = bytes(range(100))
        full = crypto.xex_encrypt(KEY_A, b"t", data)
        part = crypto.xex_encrypt(KEY_A, b"t", data[30:70], offset=30)
        assert full[30:70] == part

    @given(data=st.binary(max_size=300), offset=st.integers(0, 500))
    def test_property_roundtrip_any_offset(self, data, offset):
        ct = crypto.xex_encrypt(KEY_A, b"tw", data, offset=offset)
        assert crypto.xex_decrypt(KEY_A, b"tw", ct, offset=offset) == data

    @given(st.binary(min_size=1, max_size=64))
    def test_property_ciphertext_differs_from_plaintext(self, data):
        # A keystream collision of all-zero bytes over the range is
        # cryptographically negligible; treat equality as failure.
        assert crypto.xex_encrypt(KEY_A, b"t", data) != data or len(data) == 0


class TestKeyWrap:
    def test_wrap_unwrap(self):
        wrapped = crypto.wrap_key(KEY_A, KEY_B)
        assert crypto.unwrap_key(KEY_A, wrapped) == KEY_B

    def test_unwrap_wrong_kek_rejected(self):
        wrapped = crypto.wrap_key(KEY_A, KEY_B)
        with pytest.raises(ValueError):
            crypto.unwrap_key(b"C" * 16, wrapped)

    def test_tampered_ciphertext_rejected(self):
        ct, tag = crypto.wrap_key(KEY_A, KEY_B)
        evil = bytes([ct[0] ^ 1]) + ct[1:]
        with pytest.raises(ValueError):
            crypto.unwrap_key(KEY_A, (evil, tag))


def _twin_private(seed):
    """The private exponent a ``DiffieHellman(Random(seed))`` derives:
    the low 255 bits of its draw over the prime's range, bit 255 set."""
    draw = random.Random(seed).randrange(2, crypto.DH_PRIME - 2)
    return draw % 2 ** 255 + 2 ** 255


def _master(peer, private, nonce):
    z = builtins.pow(peer, private, crypto.DH_PRIME)
    return hashlib.sha256(
        z.to_bytes(192, "big") + b"|master|" + nonce).digest()


class TestDiffieHellman:
    def test_agreement(self):
        alice = crypto.DiffieHellman(random.Random(1))
        bob = crypto.DiffieHellman(random.Random(2))
        nonce = b"n" * 16
        assert alice.shared_secret(bob.public, nonce) == \
            bob.shared_secret(alice.public, nonce)

    def test_eavesdropper_with_different_key_disagrees(self):
        alice = crypto.DiffieHellman(random.Random(1))
        bob = crypto.DiffieHellman(random.Random(2))
        eve = crypto.DiffieHellman(random.Random(3))
        nonce = b"n" * 16
        assert eve.shared_secret(bob.public, nonce) != \
            alice.shared_secret(bob.public, nonce)

    def test_nonce_binds_secret(self):
        alice = crypto.DiffieHellman(random.Random(1))
        bob = crypto.DiffieHellman(random.Random(2))
        assert alice.shared_secret(bob.public, b"x" * 16) != \
            alice.shared_secret(bob.public, b"y" * 16)

    def test_invalid_public_value_rejected(self, modexps):
        """On every call, also after valid ones: ``7.0`` hashes like the
        memoised ``7`` and must not be served from the memo."""
        alice = crypto.DiffieHellman(random.Random(1))
        bad = (0, 1, -7, crypto.DH_PRIME - 1, crypto.DH_PRIME, 7.0, "7",
               None)
        for peer in bad:
            with pytest.raises(SevError, match="invalid DH public value"):
                alice.shared_secret(peer, b"n")
        alice.shared_secret(7, b"n")
        for peer in bad:
            with pytest.raises(SevError) as caught:
                alice.shared_secret(peer, b"n")
            assert caught.value.status == "INVALID_CERTIFICATE"
        assert len(modexps) == 1

    def test_construction_draws_one_exponent_and_runs_no_modexp(
            self, modexps):
        rng = random.Random(5)
        twin = random.Random(5)
        crypto.DiffieHellman(rng)
        twin.randrange(2, crypto.DH_PRIME - 2)
        assert rng.getstate() == twin.getstate()
        assert modexps == []

    def test_private_exponent_is_256_bits_of_the_draw(self):
        for seed in range(200):
            private = crypto.DiffieHellman(random.Random(seed))._private
            assert 2 ** 255 <= private < 2 ** 256
            assert private == _twin_private(seed)

    def test_public_costs_one_modexp_however_often_read(self, modexps):
        dh = crypto.DiffieHellman(random.Random(5))
        values = {dh.public for _ in range(3)}
        assert values == {builtins.pow(crypto.DH_GENERATOR,
                                       _twin_private(5), crypto.DH_PRIME)}
        assert len(modexps) == 1

    def test_repeated_peer_costs_one_modexp_and_stays_exact(self, modexps):
        dh = crypto.DiffieHellman(random.Random(5))
        private = _twin_private(5)
        for nonce in (b"a" * 16, b"b" * 16, b"a" * 16):
            assert dh.shared_secret(7, nonce) == _master(7, private, nonce)
        assert len(modexps) == 1
        assert dh.shared_secret(11, b"c") == _master(11, private, b"c")
        assert dh.shared_secret(7, b"d") == _master(7, private, b"d")
        assert len(modexps) == 2

    def test_evicted_peer_recomputes_to_the_same_value(self, modexps):
        dh = crypto.DiffieHellman(random.Random(5))
        first = dh.shared_secret(7, b"n")
        for peer in range(100, 100 + crypto._DH_PEER_MEMO):
            dh.shared_secret(peer, b"n")
        spent = len(modexps)
        assert dh.shared_secret(7, b"n") == first
        assert len(modexps) == spent + 1

    def test_recently_used_peer_survives_the_bound(self, modexps):
        dh = crypto.DiffieHellman(random.Random(5))
        dh.shared_secret(7, b"n")
        for peer in range(100, 100 + crypto._DH_PEER_MEMO):
            dh.shared_secret(7, b"n")
            dh.shared_secret(peer, b"n")
        spent = len(modexps)
        dh.shared_secret(7, b"n")
        assert len(modexps) == spent


_P = crypto.DH_PRIME
_EXPONENT_BITS = crypto._DH_WINDOW * crypto._DH_TABLE_ROWS


def _zero_digit_run(start_len):
    """An exponent with window digits ``[start, start + length)`` zeroed."""
    exponent, start, length = start_len
    window = crypto._DH_WINDOW
    run = ((1 << (window * length)) - 1) << (window * start)
    return exponent & ~run


_EXPONENTS = st.one_of(
    st.sampled_from([0, 1, 1 << (_EXPONENT_BITS - 1),
                     (1 << _EXPONENT_BITS) - 1]),
    st.integers(0, (1 << _EXPONENT_BITS) - 1),
    st.tuples(st.integers(0, (1 << _EXPONENT_BITS) - 1),
              st.integers(0, crypto._DH_TABLE_ROWS - 1),
              st.integers(1, crypto._DH_TABLE_ROWS)).map(_zero_digit_run),
)
_BASES = st.one_of(st.sampled_from([2, _P - 2]), st.integers(2, _P - 2))


class TestFixedBaseTables:
    """The fixed-base path against its reference, ``pow``, and the two
    bounded structures that decide when a base earns a table."""

    @pytest.fixture(autouse=True)
    def _cold(self):
        crypto.clear_dh_tables()
        yield
        crypto.clear_dh_tables()

    @settings(max_examples=60, deadline=None)
    @given(base=_BASES, exponent=_EXPONENTS)
    def test_property_table_path_equals_pow(self, base, exponent):
        table = crypto._fixed_base_table(base)
        assert crypto._fixed_base_pow(table, exponent) == \
            builtins.pow(base, exponent, _P)

    def test_every_private_exponent_fits_a_table(self):
        assert 1 << crypto._DH_EXPONENT_BITS <= \
            crypto._DH_TABLE_EXPONENT_LIMIT

    def test_second_sighting_builds_the_table(self):
        x = _twin_private(5)
        assert crypto._dh_pow(7, x) == builtins.pow(7, x, _P)
        assert list(crypto._dh_seen) == [7]
        assert not crypto._dh_tables
        assert crypto._dh_pow(7, x + 1) == builtins.pow(7, x + 1, _P)
        assert list(crypto._dh_tables) == [7]
        assert not crypto._dh_seen
        assert crypto._dh_pow(7, 3) == 343

    def test_exponent_wider_than_a_table_goes_to_pow(self, monkeypatch):
        crypto._dh_pow(7, 3)
        crypto._dh_pow(7, 3)
        monkeypatch.setattr(crypto, "_fixed_base_pow", None)
        for exponent in (crypto._DH_TABLE_EXPONENT_LIMIT, -1):
            assert crypto._dh_pow(7, exponent) == \
                builtins.pow(7, exponent, _P)

    def test_fresh_bases_cannot_grow_either_structure(self):
        bases = range(1000, 1100)
        for base in bases:
            crypto._dh_pow(base, 5)
        assert len(crypto._dh_seen) == crypto._DH_SEEN_MAX
        assert not crypto._dh_tables
        for base in bases:
            assert crypto._dh_pow(base, 5) == builtins.pow(base, 5, _P)
            assert crypto._dh_pow(base, 6) == builtins.pow(base, 6, _P)
        assert list(crypto._dh_tables) == list(bases)[-crypto._DH_TABLES_MAX:]
        assert len(crypto._dh_seen) <= crypto._DH_SEEN_MAX

    def test_registered_reset_empties_both(self):
        for _ in range(2):
            crypto._dh_pow(7, 3)
        crypto._dh_pow(11, 3)
        assert crypto._dh_tables and crypto._dh_seen
        for name in ("_dh_seen", "_dh_tables"):
            entry = state_registry.lookup("repro.common.crypto", name)
            assert entry.classification == "derived-cache"
            getattr(crypto, entry.reset)()
            assert not getattr(crypto, name)

    def test_no_exponent_or_dh_value_enters_module_state(self):
        parties = [crypto.DiffieHellman(random.Random(s)) for s in (1, 2, 3)]
        # every public value is read, so the generator is sighted 3 times
        peer = [party.public for party in parties][0]
        for party in parties:
            party.shared_secret(peer, b"n")
        held = set(crypto._dh_seen) | set(crypto._dh_tables)
        for table in crypto._dh_tables.values():
            held.update(table)
        assert {crypto.DH_GENERATOR, peer} <= set(crypto._dh_tables)
        secrets = {party._private for party in parties} | {
            builtins.pow(peer, party._private, _P) for party in parties}
        assert not held & secrets


class TestMeasurement:
    def test_measurement_is_keyed(self):
        assert crypto.hmac_measure(KEY_A, b"data") != \
            crypto.hmac_measure(KEY_B, b"data")

    def test_measurement_detects_change(self):
        assert crypto.hmac_measure(KEY_A, b"data") != \
            crypto.hmac_measure(KEY_A, b"Data")

    def test_derive_key_labels_independent(self):
        secret = b"s" * 32
        assert crypto.derive_key(secret, "kek") != crypto.derive_key(secret, "tik")
        assert len(crypto.derive_key(secret, "kek")) == 16

    def test_random_key_deterministic_per_rng(self):
        assert crypto.random_key(random.Random(9)) == \
            crypto.random_key(random.Random(9))
