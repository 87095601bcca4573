import pytest

from veriledger.codec import (
    Hash256,
    enc_bytes,
    enc_f64,
    enc_scalar_map,
    enc_str,
    enc_str_map,
    enc_u32,
    enc_u64,
    hash_bytes,
)

# Standard SHA-256 reference vectors, cross-checked against an independent
# implementation (FIPS 180-2 examples).
SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
SHA256_ABC = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"


def test_hash_empty_input():
    assert hash_bytes(b"").hex == SHA256_EMPTY


def test_hash_abc():
    assert hash_bytes(b"abc").hex == SHA256_ABC


def test_hash_deterministic():
    blob = b"\x00\x01\xfe payload"
    assert hash_bytes(blob) == hash_bytes(blob)
    assert hash_bytes(blob) != hash_bytes(blob + b"\x00")


def test_hash256_requires_32_bytes():
    with pytest.raises(ValueError):
        Hash256(b"\x00" * 31)
    with pytest.raises(ValueError):
        Hash256(b"\x00" * 33)


def test_hash256_hex_roundtrip():
    h = hash_bytes(b"roundtrip")
    assert bytes.fromhex(h.hex) == h.value
    assert len(h.hex) == 64
    assert h.hex == h.hex.lower()


def test_u64_big_endian_fixed_width():
    assert enc_u64(0) == b"\x00" * 8
    assert enc_u64(1) == b"\x00" * 7 + b"\x01"
    assert enc_u64(2**64 - 1) == b"\xff" * 8
    with pytest.raises(ValueError):
        enc_u64(-1)
    with pytest.raises(ValueError):
        enc_u64(2**64)


def test_u32_range():
    assert enc_u32(258) == b"\x00\x00\x01\x02"
    with pytest.raises(ValueError):
        enc_u32(2**32)


def test_strings_length_prefixed_utf8():
    assert enc_str("") == b"\x00\x00\x00\x00"
    assert enc_str("ab") == b"\x00\x00\x00\x02ab"
    encoded = enc_str("héllo")
    assert encoded[:4] == len("héllo".encode()) .to_bytes(4, "big")


def test_bytes_length_prefixed():
    assert enc_bytes(b"xyz") == b"\x00\x00\x00\x03xyz"


def test_map_sorted_by_key():
    a = enc_str_map({"b": "2", "a": "1"})
    b = enc_str_map({"a": "1", "b": "2"})
    assert a == b


def test_f64_ieee_big_endian():
    assert enc_f64(1.0) == b"\x3f\xf0\x00\x00\x00\x00\x00\x00"


def test_scalar_map_type_tags():
    encoded = enc_scalar_map({"tau": 0.95, "k": 5, "name": "x", "flag": True})
    # changing any value changes the bytes
    assert encoded != enc_scalar_map({"tau": 0.95, "k": 6, "name": "x", "flag": True})
    assert encoded != enc_scalar_map({"tau": 0.95, "k": 5, "name": "x", "flag": False})
    with pytest.raises(ValueError):
        enc_scalar_map({"bad": [1, 2]})


def test_int_and_float_values_encode_differently():
    assert enc_scalar_map({"v": 1}) != enc_scalar_map({"v": 1.0})
