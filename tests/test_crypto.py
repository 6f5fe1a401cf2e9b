import numpy as np
import pytest

from ioht_pipeline.crypto import (
    HEADER_LEN,
    RECORD_LEN,
    SUITES,
    PayloadError,
    ciphertext_size,
    decrypt,
    encrypt,
    parse_payload,
    plaintext_size_for_savings,
    serialize_payload,
    serialize_records,
    transmitted_records,
)
from ioht_pipeline.inference import (
    REASON_CODES,
    InferenceConfig,
    TransmissionSet,
    select_samples,
)
from ioht_pipeline.trace import SyntheticSpec, Trace, generate_trace

KEYS = {
    "aes-128-ecb": bytes(range(16)),
    "des-ecb": bytes(range(8)),
    "blowfish-ecb": bytes(range(16, 32)),
}


class TestWireFormat:
    def test_empty_payload_header_only(self):
        data = serialize_records("heart-rate", "bpm", [])
        assert len(data) == HEADER_LEN == 11
        assert data[:4] == b"IOHT"

    def test_one_record_size(self):
        data = serialize_records("heart-rate", "bpm", [(60, 72.5, "variance")])
        assert len(data) == HEADER_LEN + RECORD_LEN == 24

    def test_round_trip(self):
        records = [(0, 70.0, "anchor"), (60, 71.25, "variance"), (120, 69.5, "beacon")]
        data = serialize_records("body-temperature", "celsius", records)
        kind, unit, parsed = parse_payload(data)
        assert kind == "body-temperature"
        assert unit == "celsius"
        assert parsed == records

    def test_serialize_selected_subset(self):
        trace = generate_trace(SyntheticSpec(n=50, seed=1, noise_scale=1.0))
        tx = select_samples(trace, InferenceConfig(vr=0.05))
        data = serialize_payload(trace, tx)
        _, _, parsed = parse_payload(data)
        assert len(parsed) == len(tx)
        for (t, value, reason), (idx, want_reason) in zip(parsed, tx.selected):
            assert t == trace.times[idx]
            assert value == trace.values[idx]
            assert reason == want_reason

    def test_parse_rejects_garbage(self):
        with pytest.raises(PayloadError):
            parse_payload(b"nope")
        good = serialize_records("heart-rate", "bpm", [(0, 1.0, "anchor")])
        with pytest.raises(PayloadError):
            parse_payload(good[:-1])
        with pytest.raises(PayloadError):
            parse_payload(b"XXXX" + good[4:])
        with pytest.raises(PayloadError, match="unknown reason code 3"):
            parse_payload(good[:-1] + b"\x03")

    @pytest.mark.parametrize("t", [2**32, -1])
    def test_time_outside_32_bits_is_a_payload_error(self, t):
        with pytest.raises(PayloadError, match=f"record at t={t}"):
            serialize_records("heart-rate", "bpm", [(t, 1.0, "anchor")])

    def test_transmitted_records_follow_the_selection(self):
        trace = Trace("other", "dimensionless", [0, 10, 20], [1.5, 2.5, 3.5])
        tx = TransmissionSet(3, [0, 2], [REASON_CODES["anchor"], REASON_CODES["beacon"]])
        assert transmitted_records(trace, tx) == [(0, 1.5, "anchor"), (20, 3.5, "beacon")]
        with pytest.raises(PayloadError, match="inconsistent"):
            transmitted_records(trace, TransmissionSet(2, [0], [0]))


class TestEncryption:
    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_round_trip_various_lengths(self, name):
        suite = SUITES[name]
        key = KEYS[name]
        rng = np.random.default_rng(7)
        for length in [0, 1, 7, 8, 15, 16, 17, 63, 64, 255, 300]:
            plaintext = rng.bytes(length)
            payload = encrypt(plaintext, suite, key)
            assert decrypt(payload, key) == plaintext
            assert len(payload.ciphertext) == ciphertext_size(length, suite)
            assert len(payload.ciphertext) % suite.block_bytes == 0

    def test_wrong_key_length(self):
        with pytest.raises(ValueError, match="key"):
            encrypt(b"hi", SUITES["aes-128-ecb"], b"short")

    def test_known_aes_sizes(self):
        suite = SUITES["aes-128-ecb"]
        assert ciphertext_size(498, suite) == 512
        assert ciphertext_size(1024, suite) == 1040


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
            payload = serialize_payload(trace, tx)
            sizes.append((len(payload), ciphertext_size(len(payload), suite)))
        plain = [p for p, _ in sizes]
        cipher = [c for _, c in sizes]
        assert plain == sorted(plain, reverse=True)
        assert cipher == sorted(cipher, reverse=True)
