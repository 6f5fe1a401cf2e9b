"""Payload wire format, block-cipher encryption (ECB + PKCS#7) and the
plaintext/ciphertext size model.

ECB mode is insecure and is used here only because the size relationship
between plaintext and ciphertext is what is under study; do not reuse this
for real deployments. Single DES is likewise size-model fidelity only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from cryptography.hazmat.decrepit.ciphers.algorithms import Blowfish, TripleDES
from cryptography.hazmat.primitives import padding
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from .inference import REASON_NAMES, TransmissionSet
from .trace import KIND_CODES, KINDS, UNIT_CODES, UNITS, Trace

MAGIC = b"IOHT"
FORMAT_VERSION = 0x01
# One packed message header; `count` is the number of records that follow.
HEADER_DTYPE = np.dtype([("magic", "S4"), ("version", "u1"), ("kind", "u1"), ("unit", "u1"),
                         ("count", ">u4")])
HEADER_LEN = HEADER_DTYPE.itemsize  # 11
# One packed wire record: big-endian time and value, then the reason code.
RECORD_DTYPE = np.dtype([("t", ">u4"), ("value", ">f8"), ("reason", "u1")])
RECORD_LEN = RECORD_DTYPE.itemsize  # 13
# The most records one message can hold: its header's count is a u4.
MAX_MESSAGE_RECORDS = 2**32 - 1


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


class PayloadError(ValueError):
    """Raised for malformed wire-format payloads."""


def _check_records(records: np.ndarray) -> None:
    if not isinstance(records, np.ndarray) or records.dtype != RECORD_DTYPE or records.ndim != 1:
        raise PayloadError("records must be a 1-D RECORD_DTYPE array")
    if len(records) > MAX_MESSAGE_RECORDS:
        raise PayloadError("record count exceeds 2^32 - 1")


def _header(kind: str, unit: str, count: int) -> bytes:
    fields = (MAGIC, FORMAT_VERSION, KIND_CODES[kind], UNIT_CODES[unit], count)
    return np.array(fields, HEADER_DTYPE).tobytes()


def serialize_records(kind: str, unit: str, records: np.ndarray) -> bytes:
    """Encode a RECORD_DTYPE array in the canonical wire format."""
    _check_records(records)
    return _header(kind, unit, len(records)) + records.tobytes()


def _message_sizes(batch: int, suite: CipherSuite) -> tuple[int, int]:
    """(plaintext, padded) bytes of a message of `batch` records."""
    size = HEADER_LEN + batch * RECORD_LEN
    return size, ciphertext_size(size, suite)


def frame_records(kind: str, unit: str, records: np.ndarray, batch: int,
                  suite: CipherSuite) -> bytes:
    """Every message of a run laid end to end, `batch` records to a message.

    Every message but the last is a full batch, laid out as a row of header,
    records and PKCS#7 pad. The last message (the rest, or a header alone
    when there are no records) is left unpadded for `encrypt` to pad. The
    buffer is then whole blocks up to its last message, so one ECB pass over
    it gives the ciphertext of enciphering every message on its own.
    """
    _check_records(records)
    size, width = _message_sizes(batch, suite)
    full = max(len(records) - 1, 0) // batch  # the messages before the last
    rows = np.empty((full, width), np.uint8)
    if full:
        rows[:, :HEADER_LEN] = np.frombuffer(_header(kind, unit, batch), np.uint8)
    body = records[:full * batch].view(np.uint8)
    rows[:, HEADER_LEN:size] = body.reshape(full, size - HEADER_LEN)
    rows[:, size:] = width - size
    return rows.tobytes() + serialize_records(kind, unit, records[full * batch:])


def frame_sizes(record_count: int, batch: int, suite: CipherSuite) -> tuple[int, int, int]:
    """(messages, plaintext bytes, ciphertext bytes) of `frame_records`
    framing `record_count` records, `batch` to a message."""
    full = max(record_count - 1, 0) // batch  # the messages before the last
    size, width = _message_sizes(batch, suite)
    last, padded = _message_sizes(record_count - full * batch, suite)
    return full + 1, full * size + last, full * width + padded


def read_frames(data: bytes, batch: int,
                suite: CipherSuite) -> tuple[str, str, np.ndarray, int, int]:
    """Decode and check a `frame_records` buffer, as decrypted: (kind, unit,
    every message's records in order (read-only), the message count and the
    unpadded bytes read). One message of `count` records is read as
    `read_frames(data, max(count, 1), suite)`. Raises PayloadError naming the
    first fault the checks below find, or the first unknown reason code."""
    size, width = _message_sizes(batch, suite)
    full = len(data) // width
    rows = np.frombuffer(data, np.uint8, full * width).reshape(full, width)
    last = np.frombuffer(data, np.uint8, offset=full * width)
    rest, odd = divmod(len(last) - HEADER_LEN, RECORD_LEN)
    if rest < 0 or odd or rest > batch:
        raise PayloadError(f"last message of {len(last)} bytes is not a header "
                           f"and at most {batch} whole records")
    headers = np.ndarray(full + 1, HEADER_DTYPE, data, strides=(width,))  # one per row
    kind, unit = headers["kind"], headers["unit"]
    counts = np.append(np.full(full, batch), rest)  # the last message holds the rest
    for fault, ok in {
        "bad magic bytes": headers["magic"] == MAGIC,
        "unsupported format version": headers["version"] == FORMAT_VERSION,
        "unknown kind/unit code": (kind < len(KINDS)) & (unit < len(UNITS)),
        "kind or unit differs from the first message's": (kind == kind[0]) & (unit == unit[0]),
        "header count is not the records held": headers["count"] == counts,
        "pad byte is not the pad length": np.all(rows[:, size:] == width - size, axis=1),
    }.items():
        if not np.all(ok):
            raise PayloadError(f"message {np.argmin(ok)}: {fault}")
    body = np.concatenate((rows[:, HEADER_LEN:size].reshape(-1), last[HEADER_LEN:]))
    records = body.view(RECORD_DTYPE)
    records.flags.writeable = False
    unknown = records["reason"][records["reason"] >= len(REASON_NAMES)]
    if len(unknown):
        raise PayloadError(f"unknown reason code {unknown[0]}")
    return KINDS[kind[0]], UNITS[unit[0]], records, full + 1, len(data) - full * (width - size)


def transmitted_records(trace: Trace, tx: TransmissionSet, start: int = 0,
                        stop: int | None = None) -> np.ndarray:
    """The wire records (RECORD_DTYPE) of the transmitted subset of a trace,
    or of its records `start` to `stop` (as a slice takes them)."""
    if tx.source_len != len(trace):
        raise PayloadError("transmission set inconsistent with trace")
    indices = tx.indices[start:stop]
    times = trace.times[indices]
    # Trace times are non-negative, so only the upper end can overflow ">u4".
    outside = times[times > 0xFFFFFFFF]
    if len(outside):
        raise PayloadError(f"record at t={outside[0]} does not fit the wire format (t > 2^32 - 1)")
    records = np.empty(len(times), RECORD_DTYPE)
    records["t"] = times
    records["value"] = trace.values[indices]
    records["reason"] = tx.codes[start:stop]
    return records


def _cipher(suite: CipherSuite, key: bytes) -> Cipher:
    """The ECB cipher of `suite` under `key`."""
    if len(key) != suite.key_bits // 8:
        raise ValueError(
            f"{suite.name} needs a {suite.key_bits // 8}-byte key, got {len(key)}"
        )
    if suite.name == "aes-128-ecb":
        algo = algorithms.AES(key)
    elif suite.name == "des-ecb":
        # TripleDES with K1 = K2 = K3 is single DES.
        algo = TripleDES(key * 3)
    elif suite.name == "blowfish-ecb":
        algo = Blowfish(key)
    else:
        raise ValueError(f"unknown suite {suite.name!r}")
    return Cipher(algo, modes.ECB())


class EcbContext:
    """One key schedule for a run: an ECB encryptor and decryptor that stay
    open from one `encrypt`/`decrypt` call to the next, as `_transmit` sends
    a run in chunks of whole messages, one call of each per chunk.

    This is sound only because ECB carries no state between blocks: each
    block is enciphered on its own, so bytes sent through a long-lived
    context, or many messages sent in one call, come out as they would
    through a fresh context per message. Every message is whole blocks
    after padding (`frame_records` pads all but the last, `encrypt` pads
    the last), and the context pads itself (OpenSSL's padding is off), so
    `update` keeps no block back. `_cipher` builds only ECB ciphers.
    """

    def __init__(self, suite: CipherSuite, key: bytes) -> None:
        cipher = _cipher(suite, key)
        self.suite = suite
        self._pkcs7 = padding.PKCS7(suite.block_bytes * 8)
        self._encryptor = cipher.encryptor()
        self._decryptor = cipher.decryptor()


def encrypt(plaintext: bytes, context: EcbContext) -> EncryptedPayload:
    """ECB-encrypt with PKCS#7 padding."""
    padder = context._pkcs7.padder()
    padded = padder.update(plaintext) + padder.finalize()
    ciphertext = context._encryptor.update(padded)
    return EncryptedPayload(suite=context.suite, ciphertext=ciphertext)


def decrypt(payload: EncryptedPayload, context: EcbContext) -> bytes:
    suite = context.suite
    if payload.suite != suite:
        raise ValueError(f"payload is {payload.suite.name}, the context {suite.name}")
    if len(payload.ciphertext) % suite.block_bytes:
        raise ValueError("ciphertext length is not a multiple of the block length")
    padded = context._decryptor.update(payload.ciphertext)
    if len(padded) != len(payload.ciphertext):
        # a decryptor that kept a block back would prepend it to the next message
        raise RuntimeError("ECB decryptor held back part of a message")
    unpadder = context._pkcs7.unpadder()
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
