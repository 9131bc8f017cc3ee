"""Tests for the MEE crypto primitives."""

import hashlib
import hmac
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SecurityError
from repro.sgx.crypto import (
    CtrCipher,
    MacKey,
    derive_key,
    pack_counter,
    unpack_counter,
)

MASTER = b"master-key-material-0123456789ab"


class TestKeyDerivation:
    def test_domain_separation(self):
        assert derive_key(MASTER, "encrypt") != derive_key(MASTER, "mac")

    def test_deterministic(self):
        assert derive_key(MASTER, "x") == derive_key(MASTER, "x")

    def test_empty_master_rejected(self):
        with pytest.raises(SecurityError):
            derive_key(b"", "x")


class TestCtrCipher:
    def setup_method(self):
        self.cipher = CtrCipher(derive_key(MASTER, "enc"))

    def test_roundtrip(self):
        plaintext = b"the processor context" * 3
        ciphertext = self.cipher.encrypt(0x1000, 7, plaintext)
        assert self.cipher.decrypt(0x1000, 7, ciphertext) == plaintext

    def test_ciphertext_differs_from_plaintext(self):
        plaintext = bytes(64)
        assert self.cipher.encrypt(0, 0, plaintext) != plaintext

    def test_version_changes_keystream(self):
        """Temporal uniqueness: bumping the version re-keys the block."""
        plaintext = bytes(64)
        assert self.cipher.encrypt(0, 1, plaintext) != self.cipher.encrypt(0, 2, plaintext)

    def test_address_changes_keystream(self):
        """Spatial uniqueness: same data at different addresses differs."""
        plaintext = bytes(64)
        assert self.cipher.encrypt(0, 1, plaintext) != self.cipher.encrypt(64, 1, plaintext)

    def test_short_key_rejected(self):
        with pytest.raises(SecurityError):
            CtrCipher(b"short")

    @given(st.binary(min_size=0, max_size=300), st.integers(0, 2**63), st.integers(0, 2**63))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, data, address, version):
        ciphertext = self.cipher.encrypt(address, version, data)
        assert len(ciphertext) == len(data)
        assert self.cipher.decrypt(address, version, ciphertext) == data


    def test_keystream_is_hmac_sha256_of_address_version_index(self):
        key = derive_key(MASTER, "enc")
        expected = b"".join(
            hmac.new(key, struct.pack(">QQI", 0x4000, 3, index), hashlib.sha256).digest()
            for index in range(3)
        )[:70]
        assert self.cipher.keystream(0x4000, 3, 70) == expected

    def test_crypt_blocks_matches_per_block_encrypt(self):
        versions = [1, 5, 2, 9]
        data = bytes(range(256))
        expected = b"".join(
            self.cipher.encrypt(0x8000 + 64 * i, version, data[64 * i : 64 * (i + 1)])
            for i, version in enumerate(versions)
        )
        assert self.cipher.crypt_blocks(0x8000, versions, data, 64) == expected
        assert self.cipher.crypt_blocks(0x8000, versions, expected, 64) == data

    def test_crypt_blocks_rejects_length_mismatch(self):
        with pytest.raises(SecurityError):
            self.cipher.crypt_blocks(0, [1, 2], bytes(64), 64)


class TestMac:
    def setup_method(self):
        self.mac = MacKey(derive_key(MASTER, "mac"))

    def test_verify_accepts_genuine_tag(self):
        tag = self.mac.tag(b"part1", b"part2")
        assert self.mac.verify(tag, b"part1", b"part2")

    def test_verify_rejects_tampered_content(self):
        tag = self.mac.tag(b"part1", b"part2")
        assert not self.mac.verify(tag, b"part1", b"partX")

    def test_length_prefixing_prevents_boundary_shifts(self):
        """('ab','c') and ('a','bc') must not collide."""
        assert self.mac.tag(b"ab", b"c") != self.mac.tag(b"a", b"bc")

    def test_different_keys_different_tags(self):
        other = MacKey(derive_key(MASTER, "other"))
        assert self.mac.tag(b"data") != other.tag(b"data")

    @pytest.mark.parametrize("key_length", [16, 32, 64, 100])
    def test_tag_is_truncated_hmac_sha256(self, key_length):
        key = bytes(range(key_length))
        message = struct.pack(">I", 1) + b"a" + struct.pack(">I", 2) + b"bc"
        expected = hmac.new(key, message, hashlib.sha256).digest()[:8]
        assert MacKey(key).tag(b"a", b"bc") == expected

    def test_tag_length(self):
        assert len(self.mac.tag(b"x")) == 8


class TestCounterSerialization:
    def test_roundtrip(self):
        assert unpack_counter(pack_counter(123456789)) == 123456789

    def test_wraps_at_64_bits(self):
        assert unpack_counter(pack_counter(2**64 + 5)) == 5

    def test_bad_length_rejected(self):
        with pytest.raises(SecurityError):
            unpack_counter(b"\x00" * 7)
