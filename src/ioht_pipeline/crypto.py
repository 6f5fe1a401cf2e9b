"""Payload wire format, block-cipher encryption (ECB + PKCS#7) and the
plaintext/ciphertext size model.

ECB mode is insecure and is used here only because the size relationship
between plaintext and ciphertext is what is under study; do not reuse this
for real deployments. Single DES is likewise size-model fidelity only.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cache
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable

import numpy as np

from .inference import REASON_NAMES, TransmissionSet
from .trace import KIND_CODES, KINDS, UNIT_CODES, UNITS, Trace, _integer

if TYPE_CHECKING:
    from cryptography.hazmat.primitives.ciphers import Cipher, CipherAlgorithm

MAGIC = b"IOHT"
FORMAT_VERSION = 0x01
# One packed message header; `count` is the number of records that follow.
HEADER_DTYPE = np.dtype([("magic", "S4"), ("version", "u1"), ("kind", "u1"), ("unit", "u1"),
                         ("count", ">u4")])
HEADER_LEN = HEADER_DTYPE.itemsize  # 11
# HEADER_DTYPE as `struct` packs it, a few times faster than a numpy record;
# tests/test_crypto.py checks the two give the same bytes.
_HEADER = struct.Struct(">4sBBBI")
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
    algorithm: Callable[[bytes], CipherAlgorithm]  # the block cipher under a key


@cache
def _library() -> SimpleNamespace:
    """The `cryptography` classes ciphers are built from, imported once, when
    the first cipher is built: importing the package, and every command that
    enciphers nothing, loads none of the library (about 6 MB of resident memory)."""
    from cryptography.hazmat.decrepit.ciphers.algorithms import Blowfish, TripleDES
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
    from cryptography.hazmat.primitives.padding import PKCS7
    return SimpleNamespace(AES=algorithms.AES, Blowfish=Blowfish, TripleDES=TripleDES,
                           Cipher=Cipher, ECB=modes.ECB, PKCS7=PKCS7)


SUITES = {suite.name: suite for suite in (
    CipherSuite("aes-128-ecb", block_bytes=16, key_bits=128,
                algorithm=lambda key: _library().AES(key)),
    # TripleDES with K1 = K2 = K3 is single DES.
    CipherSuite("des-ecb", block_bytes=8, key_bits=64,
                algorithm=lambda key: _library().TripleDES(key * 3)),
    CipherSuite("blowfish-ecb", block_bytes=8, key_bits=128,
                algorithm=lambda key: _library().Blowfish(key)),
)}


@dataclass(frozen=True)
class EncryptedPayload:
    suite: CipherSuite
    ciphertext: bytes


class PayloadError(ValueError):
    """Raised for malformed wire-format payloads."""


def _header(kind: str, unit: str, count: int) -> bytes:
    return _HEADER.pack(MAGIC, FORMAT_VERSION, KIND_CODES[kind], UNIT_CODES[unit], count)


def _message_sizes(batch: int, suite: CipherSuite) -> tuple[int, int]:
    """(plaintext, padded) bytes of a message of `batch` records."""
    size = HEADER_LEN + batch * RECORD_LEN
    return size, ciphertext_size(size, suite)


def frame_records(kind: str, unit: str, records: np.ndarray, batch: int,
                  suite: CipherSuite) -> bytes:
    """Every message of a run laid end to end, `batch` records to a message,
    in the canonical wire format. One message of `count` records is framed as
    `frame_records(kind, unit, records, max(count, 1), suite)`, a run of one.

    Every message but the last is a full batch, laid out as a row of header,
    records and PKCS#7 pad. The last message (the rest, or a header alone
    when there are no records) is left unpadded for `encrypt` to pad. The
    buffer is then whole blocks up to its last message, so one ECB pass over
    it gives the ciphertext of enciphering every message on its own.
    """
    if not isinstance(records, np.ndarray) or records.dtype != RECORD_DTYPE or records.ndim != 1:
        raise PayloadError("records must be a 1-D RECORD_DTYPE array")
    if batch > MAX_MESSAGE_RECORDS:  # a header counts its records in 32 bits
        raise PayloadError(f"a message holds at most 2^32 - 1 records, not {batch}")
    size, width = _message_sizes(batch, suite)
    full = max(len(records) - 1, 0) // batch  # the messages before the last
    rows = np.empty((full, width), np.uint8)
    rows[:, :HEADER_LEN] = np.frombuffer(_header(kind, unit, batch), np.uint8)
    body = records[:full * batch].view(np.uint8)
    rows[:, HEADER_LEN:size] = body.reshape(full, size - HEADER_LEN)
    rows[:, size:] = width - size
    rest = records[full * batch:]
    return rows.tobytes() + _header(kind, unit, len(rest)) + rest.tobytes()


def frame_sizes(record_count: int, batch: int, suite: CipherSuite) -> tuple[int, int, int]:
    """(messages, plaintext bytes, ciphertext bytes) of `frame_records`
    framing `record_count` records, `batch` to a message."""
    full = max(record_count - 1, 0) // batch  # the messages before the last
    size, width = _message_sizes(batch, suite)
    last, padded = _message_sizes(record_count - full * batch, suite)
    return full + 1, full * size + last, full * width + padded


def read_frames(data: bytes, batch: int, suite: CipherSuite,
                last_t: int | None = None) -> tuple[str, str, np.ndarray, int, int]:
    """Decode and check a `frame_records` buffer, as decrypted: (kind, unit,
    every message's records in order (read-only), the message count and the
    unpadded bytes read). One message of `count` records is read as
    `read_frames(data, max(count, 1), suite)`. Raises PayloadError naming the
    first fault the checks below find, the first unknown reason code, or the
    first message in which t does not increase, from `last_t` (the last t of
    the buffer before, when the run comes in more than one) if given.

    Every full message of a sound buffer starts with one header, that of a
    full batch of its first message's kind and unit, and ends with one pad.
    So all their header bytes are checked by one comparison with that
    header, all their pad bytes by one more, and the last message's header
    as bytes. Only a buffer that fails these runs the field checks, which
    name its first fault."""
    size, width = _message_sizes(batch, suite)
    full = len(data) // width
    rows = np.frombuffer(data, np.uint8, full * width).reshape(full, width)
    last = np.frombuffer(data, np.uint8, offset=full * width)
    rest, odd = divmod(len(last) - HEADER_LEN, RECORD_LEN)
    if rest < 0 or odd or rest > batch:
        raise PayloadError(f"last message of {len(last)} bytes is not a header "
                           f"and at most {batch} whole records")
    _, _, kind, unit, _ = _HEADER.unpack_from(data)  # the first message's codes
    pad = width - size
    header = np.frombuffer(_HEADER.pack(MAGIC, FORMAT_VERSION, kind, unit, batch), np.uint8)
    if not (kind < len(KINDS) and unit < len(UNITS)
            and (rows[:, :HEADER_LEN] == header).all() and (rows[:, size:] == pad).all()
            and last[:HEADER_LEN].tobytes() == _HEADER.pack(MAGIC, FORMAT_VERSION, kind, unit, rest)):
        raise PayloadError(_frame_fault(data, rows, batch, rest, size))
    body = np.concatenate((rows[:, HEADER_LEN:size].reshape(-1), last[HEADER_LEN:]))
    records = body.view(RECORD_DTYPE)
    records.flags.writeable = False
    unknown = records["reason"][records["reason"] >= len(REASON_NAMES)]
    if len(unknown):
        raise PayloadError(f"unknown reason code {unknown[0]}")
    t = records["t"]
    if last_t is not None and len(t) and t[0] <= last_t:
        raise PayloadError("message 0: t does not increase")
    increases = t[1:] > t[:-1]  # a run of ECB messages can be reordered undetected
    if not np.all(increases):
        raise PayloadError(f"message {(np.argmin(increases) + 1) // batch}: t does not increase")
    return KINDS[kind], UNITS[unit], records, full + 1, len(data) - full * pad


def _frame_fault(data: bytes, rows: np.ndarray, batch: int, rest: int, size: int) -> str:
    """The first fault of the checks below that holds, and the first message
    it holds in, of a buffer `read_frames`' header and pad comparison refused."""
    full, width = rows.shape
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
            return f"message {np.argmin(ok)}: {fault}"
    raise AssertionError("the header and pad comparison and the field checks disagree")


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
        raise ValueError(f"{suite.name} needs a {suite.key_bits // 8}-byte key, got {len(key)}")
    library = _library()
    return library.Cipher(suite.algorithm(key), library.ECB())


def encrypt(plaintext: bytes, suite: CipherSuite, key: bytes) -> EncryptedPayload:
    """ECB-encrypt with PKCS#7 padding under a cipher built for this call."""
    encryptor = _cipher(suite, key).encryptor()
    padder = _library().PKCS7(suite.block_bytes * 8).padder()
    padded = padder.update(plaintext) + padder.finalize()
    return EncryptedPayload(suite=suite, ciphertext=encryptor.update(padded) + encryptor.finalize())


def decrypt(payload: EncryptedPayload, key: bytes) -> bytes:
    """Undo `encrypt` under the suite the payload carries."""
    suite = payload.suite
    decryptor = _cipher(suite, key).decryptor()
    if len(payload.ciphertext) % suite.block_bytes:
        raise ValueError("ciphertext length is not a multiple of the block length")
    unpadder = _library().PKCS7(suite.block_bytes * 8).unpadder()
    padded = decryptor.update(payload.ciphertext) + decryptor.finalize()
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
    plaintext_len = _integer("plaintext_len", plaintext_len, 0)
    return (plaintext_len // suite.block_bytes + 1) * suite.block_bytes
