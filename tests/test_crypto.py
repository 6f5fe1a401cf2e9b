import hashlib
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest
from cryptography.hazmat.decrepit.ciphers.algorithms import Blowfish, TripleDES
from cryptography.hazmat.primitives import padding
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from ioht_pipeline.cli import build_parser
from ioht_pipeline.crypto import (
    HEADER_LEN,
    RECORD_DTYPE,
    RECORD_LEN,
    SUITES,
    EcbContext,
    PayloadError,
    _cipher,
    _header,
    ciphertext_size,
    decrypt,
    encrypt,
    frame_records,
    plaintext_size_for_savings,
    read_frames,
    serialize_records,
    transmitted_records,
)
from ioht_pipeline.inference import (
    REASON_CODES,
    InferenceConfig,
    TransmissionSet,
    select_samples,
)
from ioht_pipeline.trace import (
    KIND_CODES,
    KINDS,
    UNIT_CODES,
    UNITS,
    SyntheticSpec,
    Trace,
    generate_trace,
)

KEYS = {
    "aes-128-ecb": bytes(range(16)),
    "des-ecb": bytes(range(8)),
    "blowfish-ecb": bytes(range(16, 32)),
}


AES = SUITES["aes-128-ecb"]


def wire_records(*rows):
    """A RECORD_DTYPE array of (time, value, reason name) rows."""
    return np.array([(t, v, REASON_CODES[r]) for t, v, r in rows], dtype=RECORD_DTYPE)


def read_message(data, count):
    """read_frames of one message of `count` records: a run of one."""
    return read_frames(data, max(count, 1), AES)


# A run of three messages, one record each, under aes-128-ecb: two rows of
# 32 bytes (an 11-byte header, a 13-byte record and 8 pad bytes), then the
# last message of 24 bytes, unpadded.
RUN = frame_records("heart-rate", "bpm", wire_records(
    (0, 1.0, "anchor"), (60, 2.0, "variance"), (120, 3.0, "beacon")), 1, AES)
WIDTH = 32


def corrupt(data, offset, byte):
    return data[:offset] + bytes([byte]) + data[offset + 1:]


class TestWireFormat:
    def test_empty_payload_header_only(self):
        data = serialize_records("heart-rate", "bpm", wire_records())
        assert len(data) == HEADER_LEN == 11
        assert data[:4] == b"IOHT"

    # a header packed by hand: magic, version 1, kind and unit codes, then a
    # big-endian u32 count
    @pytest.mark.parametrize("count", [0, 60, 2**32 - 1])
    def test_header_is_the_hand_packed_layout(self, count):
        for kind, unit in zip(KINDS, UNITS):
            codes = bytes((1, KIND_CODES[kind], UNIT_CODES[unit]))
            assert _header(kind, unit, count) == b"IOHT" + codes + struct.pack(">I", count)

    def test_one_record_size(self):
        data = serialize_records("heart-rate", "bpm", wire_records((60, 72.5, "variance")))
        assert len(data) == HEADER_LEN + RECORD_LEN == 24
        # big-endian u32 time, big-endian f64 value, one reason byte
        assert data[HEADER_LEN:] == struct.pack(">IdB", 60, 72.5, REASON_CODES["variance"])

    def test_round_trip(self):
        records = wire_records((0, 70.0, "anchor"), (60, 71.25, "variance"), (120, 69.5, "beacon"))
        data = serialize_records("body-temperature", "celsius", records)
        kind, unit, parsed, messages, payload_bytes = read_message(data, 3)
        assert kind == "body-temperature"
        assert unit == "celsius"
        assert (messages, payload_bytes) == (1, len(data))
        assert parsed.dtype == RECORD_DTYPE
        assert parsed.tobytes() == records.tobytes()
        assert parsed.tolist() == [(0, 70.0, 0), (60, 71.25, 1), (120, 69.5, 2)]
        assert not parsed.flags.writeable

    def test_run_round_trip(self):
        kind, unit, parsed, messages, payload_bytes = read_frames(RUN, 1, AES)
        assert (kind, unit, messages, payload_bytes) == ("heart-rate", "bpm", 3, 3 * 24)
        assert parsed.tolist() == [(0, 1.0, 0), (60, 2.0, 1), (120, 3.0, 2)]
        assert not parsed.flags.writeable
        # a header alone is a message of no records
        empty = serialize_records("other", "dimensionless", wire_records())
        kind, unit, parsed, messages, payload_bytes = read_message(empty, 0)
        assert (kind, unit, len(parsed), messages, payload_bytes) == (
            "other", "dimensionless", 0, 1, HEADER_LEN)

    def test_serialize_selected_subset(self):
        trace = generate_trace(SyntheticSpec(n=50, seed=1, noise_scale=1.0))
        tx = select_samples(trace, InferenceConfig(vr=0.05))
        data = serialize_records(trace.kind, trace.unit, transmitted_records(trace, tx))
        _, _, parsed, _, _ = read_message(data, len(tx))
        assert len(parsed) == len(tx)
        assert parsed["t"].tolist() == trace.times[tx.indices].tolist()
        assert parsed["value"].tolist() == trace.values[tx.indices].tolist()
        assert parsed["reason"].tolist() == tx.codes.tolist()

    def test_parse_rejects_garbage(self):
        with pytest.raises(PayloadError, match="not a header"):
            read_message(b"nope", 1)
        good = serialize_records("heart-rate", "bpm", wire_records((0, 1.0, "anchor")))
        with pytest.raises(PayloadError, match="not a header"):
            read_message(good[:-1], 1)
        with pytest.raises(PayloadError, match="bad magic"):
            read_message(b"XXXX" + good[4:], 1)
        with pytest.raises(PayloadError, match="unsupported format version"):
            read_message(corrupt(good, 4, 2), 1)
        with pytest.raises(PayloadError, match="unknown kind/unit code"):
            read_message(corrupt(good, 5, len(KINDS)), 1)
        with pytest.raises(PayloadError, match="unknown kind/unit code"):
            read_message(corrupt(good, 6, len(UNITS)), 1)
        with pytest.raises(PayloadError, match="header count"):
            read_message(corrupt(good, 10, 2), 1)
        with pytest.raises(PayloadError, match="unknown reason code 3"):
            read_message(good[:-1] + b"\x03", 1)
        bad = wire_records((0, 1.0, "anchor"), (1, 2.0, "variance"), (2, 3.0, "beacon"))
        bad["reason"] = [0, 7, 3]
        with pytest.raises(PayloadError, match="unknown reason code 7"):
            read_message(serialize_records("heart-rate", "bpm", bad), 3)
        # ten records (141 bytes) read with a batch of nine, whose messages
        # are 144 bytes padded: more records than a message holds
        ten = wire_records(*[(t, 1.0, "anchor") for t in range(10)])
        with pytest.raises(PayloadError, match="141 bytes is not a header and at most 9 whole"):
            read_frames(serialize_records("heart-rate", "bpm", ten), 9, AES)

    @pytest.mark.parametrize("data,fault", [
        (RUN[:-1], "last message of 23 bytes is not a header"),
        (RUN[:WIDTH - 1] + RUN[WIDTH:], "last message of 23 bytes is not a header"),
        (corrupt(RUN, WIDTH + 5, KIND_CODES["other"]), "message 1: kind or unit differs"),
        (corrupt(RUN, 2 * WIDTH + 6, 2), "message 2: kind or unit differs"),
        (corrupt(RUN, WIDTH + 4, 0), "message 1: unsupported format version"),
        (corrupt(RUN, WIDTH - 1, 7), "message 0: pad byte is not the pad length"),
        (corrupt(RUN, 2 * WIDTH - 8, 0), "message 1: pad byte is not the pad length"),
        (corrupt(RUN, 10, 2), "message 0: header count"),
        (corrupt(RUN, 2 * WIDTH + 10, 0), "message 2: header count"),
        (corrupt(RUN, WIDTH + 23, 3), "unknown reason code 3"),
    ], ids=["short-last", "short-row", "kind-differs", "unit-differs", "version", "first-pad",
            "middle-pad", "first-count", "last-count", "reason"])
    def test_read_frames_rejects_a_bad_run(self, data, fault):
        with pytest.raises(PayloadError, match=fault):
            read_frames(data, 1, AES)

    @pytest.mark.parametrize("t", [2**32, 2**63 - 1])
    def test_time_outside_32_bits_is_a_payload_error(self, t):
        trace = Trace("other", "dimensionless", [0, 2**32 - 1, t], [1.0, 2.0, 3.0])
        tx = TransmissionSet(3, [0, 1, 2], [0, 1, 0])
        with pytest.raises(PayloadError, match=f"record at t={t} does not fit"):
            transmitted_records(trace, tx)
        with pytest.raises(PayloadError, match=f"record at t={t} does not fit"):
            serialize_records(trace.kind, trace.unit, transmitted_records(trace, tx))
        # the largest time that fits goes through unchanged
        fits = TransmissionSet(3, [0, 1], [0, 1])
        assert transmitted_records(trace, fits)["t"].tolist() == [0, 2**32 - 1]

    @pytest.mark.parametrize("records", [
        [(0, 1.0, 0)],
        np.zeros(1, dtype=np.dtype(RECORD_DTYPE.descr, align=True)),
        np.zeros(1, dtype=[("t", "<u4"), ("value", "<f8"), ("reason", "u1")]),
        np.zeros((1, 1), dtype=RECORD_DTYPE),
    ], ids=["list", "aligned", "little-endian", "2-D"])
    def test_serialize_rejects_anything_but_record_arrays(self, records):
        with pytest.raises(PayloadError, match="RECORD_DTYPE"):
            serialize_records("heart-rate", "bpm", records)

    def test_transmitted_records_follow_the_selection(self):
        trace = Trace("other", "dimensionless", [0, 10, 20], [1.5, 2.5, 3.5])
        tx = TransmissionSet(3, [0, 2], [REASON_CODES["anchor"], REASON_CODES["beacon"]])
        records = transmitted_records(trace, tx)
        assert records.dtype == RECORD_DTYPE
        assert records.tobytes() == wire_records((0, 1.5, "anchor"), (20, 3.5, "beacon")).tobytes()
        with pytest.raises(PayloadError, match="inconsistent"):
            transmitted_records(trace, TransmissionSet(2, [0], [0]))

    def test_paper_payload_bytes_are_golden(self):
        # the `ioht gen` trace (n 1420, seed 7) at vr 0.025 and beacon 60,
        # enciphered under the CLI's default key
        trace = generate_trace(SyntheticSpec(n=1420, seed=7, period=60,
                                             drift_amplitude=8.0, noise_scale=1.5))
        tx = select_samples(trace, InferenceConfig(vr=0.025, beacon_period=60))
        payload = serialize_records(trace.kind, trace.unit, transmitted_records(trace, tx))
        assert len(tx) == 640
        assert len(payload) == 8331
        assert hashlib.sha256(payload).hexdigest() == (
            "40de9f4e9a0cc80a99095e9247fd7845d9f4499a297f42dda075df707941e913")
        key = bytes.fromhex(build_parser().parse_args(["pipeline"]).key)
        ciphertext = encrypt(payload, EcbContext(SUITES["aes-128-ecb"], key)).ciphertext
        assert hashlib.sha256(ciphertext).hexdigest() == (
            "93733ceb6117342cdc45fb0dbb6715de503623e4c7ac5e552b04ba749a625ed6")


class TestEncryption:
    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_round_trip_various_lengths(self, name):
        suite = SUITES[name]
        key = KEYS[name]
        context = EcbContext(suite, key)
        rng = np.random.default_rng(7)
        for length in [0, 1, 7, 8, 15, 16, 17, 63, 64, 255, 300]:
            plaintext = rng.bytes(length)
            payload = encrypt(plaintext, context)
            assert decrypt(payload, context) == plaintext
            assert len(payload.ciphertext) == ciphertext_size(length, suite)
            assert len(payload.ciphertext) % suite.block_bytes == 0

    def test_wrong_key_length(self):
        with pytest.raises(ValueError, match="key"):
            EcbContext(SUITES["aes-128-ecb"], b"short")

    def test_known_aes_sizes(self):
        suite = SUITES["aes-128-ecb"]
        assert ciphertext_size(498, suite) == 512
        assert ciphertext_size(1024, suite) == 1040


class TestEcbContext:
    # des-ecb is TripleDES with K1 = K2 = K3, as in _cipher
    ALGORITHMS = {"aes-128-ecb": algorithms.AES, "des-ecb": lambda key: TripleDES(key * 3),
                  "blowfish-ecb": Blowfish}

    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_reused_context_matches_a_fresh_cipher_per_message(self, name):
        suite, key = SUITES[name], KEYS[name]
        context = EcbContext(suite, key)
        blob = np.random.default_rng(11).bytes(8331)
        for length in [*range(71), 791, 8331]:
            plaintext = blob[:length]
            padder = padding.PKCS7(suite.block_bytes * 8).padder()
            padded = padder.update(plaintext) + padder.finalize()
            fresh = Cipher(self.ALGORITHMS[name](key), modes.ECB()).encryptor()
            payload = encrypt(plaintext, context)
            assert payload.ciphertext == fresh.update(padded) + fresh.finalize()
            assert decrypt(payload, context) == plaintext

    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_every_suite_builds_without_a_warning(self, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            context = EcbContext(SUITES[name], KEYS[name])
            assert decrypt(encrypt(b"IOHT", context), context) == b"IOHT"

    def test_des_ecb_is_single_des(self):
        # the textbook single-DES known answer
        context = EcbContext(SUITES["des-ecb"], bytes.fromhex("133457799bbcdff1"))
        ciphertext = encrypt(bytes.fromhex("0123456789abcdef"), context).ciphertext
        assert ciphertext[:8] == bytes.fromhex("85e813540f0ab405")

    def test_cipher_builds_ecb_for_every_suite(self):
        for name, suite in SUITES.items():
            assert isinstance(_cipher(suite, KEYS[name]).mode, modes.ECB)

    def test_decrypt_refuses_partial_blocks_and_other_suites(self):
        context = EcbContext(SUITES["aes-128-ecb"], KEYS["aes-128-ecb"])
        payload = encrypt(b"x" * 20, context)
        with pytest.raises(ValueError, match="multiple of the block length"):
            decrypt(replace(payload, ciphertext=payload.ciphertext[:-1]), context)
        with pytest.raises(ValueError, match="payload is aes-128-ecb"):
            decrypt(payload, EcbContext(SUITES["blowfish-ecb"], KEYS["blowfish-ecb"]))
        # neither refusal leaves a partial block behind in the context
        assert decrypt(payload, context) == b"x" * 20


class TestSizeModel:
    @pytest.mark.parametrize("savings,expected", [
        (0.0, 1024), (51.3, 498), (78.5, 220), (89.7, 105), (98.8, 12),
    ])
    def test_plaintext_size_from_savings(self, savings, expected):
        assert plaintext_size_for_savings(savings) == expected

    def test_savings_range_check(self):
        with pytest.raises(ValueError):
            plaintext_size_for_savings(-0.1)
        with pytest.raises(ValueError):
            plaintext_size_for_savings(100.5)

    def test_ciphertext_size_boundaries(self):
        aes = SUITES["aes-128-ecb"]
        des = SUITES["des-ecb"]
        assert ciphertext_size(0, aes) == 16
        assert ciphertext_size(15, aes) == 16
        assert ciphertext_size(16, aes) == 32
        assert ciphertext_size(12, des) == 16

    def test_ciphertext_size_monotone_with_bounded_overhead(self):
        for suite in SUITES.values():
            prev = 0
            for n in range(0, 600):
                ct = ciphertext_size(n, suite)
                assert ct >= prev
                assert 1 <= ct - n <= suite.block_bytes
                prev = ct

    def test_higher_savings_smaller_everything(self):
        trace = generate_trace(SyntheticSpec(n=400, seed=4, noise_scale=2.0))
        suite = SUITES["aes-128-ecb"]
        sizes = []
        for vr in (0.0, 0.025, 0.1):
            tx = select_samples(trace, InferenceConfig(vr=vr))
            payload = serialize_records(trace.kind, trace.unit, transmitted_records(trace, tx))
            sizes.append((len(payload), ciphertext_size(len(payload), suite)))
        plain = [p for p, _ in sizes]
        cipher = [c for _, c in sizes]
        assert plain == sorted(plain, reverse=True)
        assert cipher == sorted(cipher, reverse=True)
