"""Payload wire format, block-cipher encryption (ECB + PKCS#7) and the
plaintext/ciphertext size model.

ECB mode is insecure and is used here only because the size relationship
between plaintext and ciphertext is what is under study; do not reuse this
for real deployments. Single DES is likewise size-model fidelity only.
"""
from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass
from typing import Sequence

from cryptography.hazmat.decrepit.ciphers.algorithms import Blowfish, TripleDES
from cryptography.hazmat.primitives import padding
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from .inference import REASON_CODES, REASON_NAMES, TransmissionSet
from .trace import KIND_CODES, KINDS, UNIT_CODES, UNITS, Trace

MAGIC = b"IOHT"
FORMAT_VERSION = 0x01
HEADER_LEN = 11  # magic(4) + version(1) + kind(1) + unit(1) + count(4)
RECORD_LEN = 13  # t(4) + value(8) + reason(1)


@dataclass(frozen=True)
class CipherSuite:
    name: str
    block_bytes: int
    key_bits: int


SUITES = {
    "aes-128-ecb": CipherSuite("aes-128-ecb", block_bytes=16, key_bits=128),
    "des-ecb": CipherSuite("des-ecb", block_bytes=8, key_bits=64),
    "blowfish-ecb": CipherSuite("blowfish-ecb", block_bytes=8, key_bits=128),
}


@dataclass(frozen=True)
class EncryptedPayload:
    suite: CipherSuite
    ciphertext: bytes
    plaintext_len: int


class PayloadError(ValueError):
    """Raised for malformed wire-format payloads."""


def serialize_records(kind: str, unit: str, records: Sequence[tuple[int, float, str]]) -> bytes:
    """Encode (time, value, reason) records in the canonical wire format."""
    if len(records) > 0xFFFFFFFF:
        raise PayloadError("record count exceeds 2^32 - 1")
    out = bytearray()
    out += MAGIC
    out.append(FORMAT_VERSION)
    out.append(KIND_CODES[kind])
    out.append(UNIT_CODES[unit])
    out += struct.pack(">I", len(records))
    for t, value, reason in records:
        try:
            out += struct.pack(">Id", t, value)
        except struct.error as exc:
            raise PayloadError(f"record at t={t} does not fit the wire format: {exc}") from exc
        out.append(REASON_CODES[reason])
    return bytes(out)


def transmitted_records(trace: Trace, tx: TransmissionSet) -> list[tuple[int, float, str]]:
    """The (time, value, reason) records of the transmitted subset of a trace."""
    if tx.source_len != len(trace):
        raise PayloadError("transmission set inconsistent with trace")
    reasons = [REASON_NAMES[code] for code in tx.codes.tolist()]
    return list(zip(trace.times[tx.indices].tolist(), trace.values[tx.indices].tolist(), reasons))


def serialize_payload(trace: Trace, tx: TransmissionSet) -> bytes:
    """Serialize the transmitted subset of a trace."""
    return serialize_records(trace.kind, trace.unit, transmitted_records(trace, tx))


def parse_payload(data: bytes) -> tuple[str, str, list[tuple[int, float, str]]]:
    """Decode a wire-format payload back to (kind, unit, records)."""
    if len(data) < HEADER_LEN:
        raise PayloadError("payload shorter than header")
    if data[:4] != MAGIC:
        raise PayloadError("bad magic bytes")
    if data[4] != FORMAT_VERSION:
        raise PayloadError(f"unsupported format version {data[4]}")
    try:
        kind = KINDS[data[5]]
        unit = UNITS[data[6]]
    except IndexError as exc:
        raise PayloadError("unknown kind/unit code") from exc
    (count,) = struct.unpack(">I", data[7:11])
    expected = HEADER_LEN + count * RECORD_LEN
    if len(data) != expected:
        raise PayloadError(f"payload length {len(data)} != expected {expected}")
    records = []
    for i in range(count):
        off = HEADER_LEN + i * RECORD_LEN
        t, value = struct.unpack(">Id", data[off:off + 12])
        code = data[off + 12]
        if code >= len(REASON_NAMES):
            raise PayloadError(f"unknown reason code {code}")
        records.append((t, value, REASON_NAMES[code]))
    return kind, unit, records


def _cipher(suite: CipherSuite, key: bytes) -> Cipher:
    if len(key) != suite.key_bits // 8:
        raise ValueError(
            f"{suite.name} needs a {suite.key_bits // 8}-byte key, got {len(key)}"
        )
    if suite.name == "aes-128-ecb":
        algo = algorithms.AES(key)
    elif suite.name == "des-ecb":
        # Single-key TripleDES degenerates to single DES.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            algo = TripleDES(key)
    elif suite.name == "blowfish-ecb":
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            algo = Blowfish(key)
    else:
        raise ValueError(f"unknown suite {suite.name!r}")
    return Cipher(algo, modes.ECB())


def encrypt(plaintext: bytes, suite: CipherSuite, key: bytes) -> EncryptedPayload:
    """ECB-encrypt with PKCS#7 padding."""
    padder = padding.PKCS7(suite.block_bytes * 8).padder()
    padded = padder.update(plaintext) + padder.finalize()
    enc = _cipher(suite, key).encryptor()
    ciphertext = enc.update(padded) + enc.finalize()
    return EncryptedPayload(suite=suite, ciphertext=ciphertext, plaintext_len=len(plaintext))


def decrypt(payload: EncryptedPayload, key: bytes) -> bytes:
    dec = _cipher(payload.suite, key).decryptor()
    padded = dec.update(payload.ciphertext) + dec.finalize()
    unpadder = padding.PKCS7(payload.suite.block_bytes * 8).unpadder()
    return unpadder.update(padded) + unpadder.finalize()


def plaintext_size_for_savings(savings_percent: float) -> int:
    """Plaintext bytes for a given savings percentage, from the 1024-byte
    zero-savings baseline: floor((100 - savings) * 1024 / 100)."""
    if not 0.0 <= savings_percent <= 100.0:
        raise ValueError(f"savings_percent {savings_percent} outside [0, 100]")
    # epsilon guards against 498.68799999... style float artifacts
    return math.floor((100.0 - savings_percent) * 1024.0 / 100.0 + 1e-9)


def ciphertext_size(plaintext_len: int, suite: CipherSuite) -> int:
    """Ciphertext bytes under PKCS#7: always at least one padding byte."""
    if plaintext_len < 0:
        raise ValueError("plaintext_len must be >= 0")
    return (plaintext_len // suite.block_bytes + 1) * suite.block_bytes
