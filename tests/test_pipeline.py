import json
import re
from dataclasses import replace

import numpy as np
import pytest
from test_oracles import transmit_loop

from ioht_pipeline import pipeline
from ioht_pipeline.crypto import (
    FORMAT_VERSION,
    MAX_MESSAGE_RECORDS,
    HEADER_DTYPE,
    HEADER_LEN,
    RECORD_DTYPE,
    RECORD_LEN,
    SUITES,
    ciphertext_size,
    decrypt,
    frame_records,
    transmitted_records,
)
from ioht_pipeline.dp import DpParams, DpQuery
from ioht_pipeline.inference import (
    REASON_ANCHOR,
    REASON_CODES,
    REASON_VARIANCE,
    InferenceConfig,
    TransmissionSet,
)
from ioht_pipeline.pipeline import (
    EnergyModel,
    HopLog,
    PipelineConfig,
    _transmit,
    energy_estimate,
    hop_log,
    run_pipeline,
)
from ioht_pipeline.trace import (
    KIND_CODES,
    UNIT_CODES,
    SyntheticSpec,
    generate_population,
    generate_trace,
)

KEY = bytes.fromhex("00112233445566778899aabbccddeeff")
SUITE_KEYS = {
    "aes-128-ecb": KEY,
    "des-ecb": KEY[:8],
    "blowfish-ecb": KEY,
}


def make_config(**overrides):
    defaults = dict(
        inference=InferenceConfig(vr=0.025, beacon_period=60, recon_mode="linear"),
        suite=SUITES["aes-128-ecb"],
        key=KEY,
        dp=DpParams(epsilon=0.5, sensitivity=1.0),
        queries=(DpQuery("mean", "heart_rate"), DpQuery("count")),
        batch_samples=60,
        master_seed=1234,
        energy=EnergyModel(),
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


class TestEnergyEstimate:
    def test_empty_log(self):
        assert energy_estimate((), EnergyModel()) == 0.0

    def test_linear_arithmetic(self):
        log = [HopLog("sensor->gateway", messages=1, payload_bytes=100)]
        model = EnergyModel(joules_per_byte_tx=1e-6, joules_per_message_overhead=1e-4)
        assert energy_estimate(log, model) == pytest.approx(2.0e-4)

    def test_doubling_bytes_doubles_byte_term(self):
        model = EnergyModel(joules_per_byte_tx=1e-6, joules_per_message_overhead=0.0)
        one = [HopLog("h", messages=1, payload_bytes=100)]
        two = [HopLog("h", messages=1, payload_bytes=200)]
        assert energy_estimate(two, model) == pytest.approx(2 * energy_estimate(one, model))

    def test_encrypted_hop_charged_for_ciphertext(self):
        log = [HopLog("gateway->edge", messages=1, payload_bytes=100, ciphertext_bytes=112)]
        model = EnergyModel(joules_per_byte_tx=1.0, joules_per_message_overhead=0.0)
        assert energy_estimate(log, model) == 112.0


def _full_transmission_set(n: int) -> TransmissionSet:
    """Every sample transmitted; the unfiltered baseline."""
    selected = []
    for i in range(n):
        reason = REASON_ANCHOR if i in (0, n - 1) else REASON_VARIANCE
        selected.append((i, reason))
    return TransmissionSet(n, [i for i, _ in selected], [REASON_CODES[r] for _, r in selected])


@pytest.mark.parametrize("suite", sorted(SUITES))
@pytest.mark.parametrize("batch", [1, 7, 60, 10**12])
@pytest.mark.parametrize("n", [0, 1, 59, 60, 61, 1420])
def test_unfiltered_log_matches_a_real_transmission(n, batch, suite):
    trace = generate_trace(SyntheticSpec(n=n, seed=n, noise_scale=1.0))
    # hop_log takes any batch, but a config refuses one over what a header
    # can count; at the most it takes, each run here is one message all the same
    sent = min(batch, MAX_MESSAGE_RECORDS)
    config = make_config(suite=SUITES[suite], key=SUITE_KEYS[suite], batch_samples=sent)
    tx = _full_transmission_set(n)
    _, log = transmit_loop(trace, tx, config)
    assert hop_log(n, batch, SUITES[suite]) == log == _transmit(trace, tx, config)


# Misreads at the edge, made by corrupting the buffer `frame_records` lays out
# for 130 records sent 60 to a message under aes-128-ecb: a first and a
# middle message of 800 bytes (header, records, pad), then a last of 10
# records.
WIDTH = ciphertext_size(HEADER_LEN + 60 * RECORD_LEN, SUITES["aes-128-ecb"])


def _header(buffer, message):
    return np.ndarray((), HEADER_DTYPE, buffer, message * WIDTH)


def _record(buffer, i):
    message, j = divmod(i, 60)
    return np.ndarray((), RECORD_DTYPE, buffer, message * WIDTH + HEADER_LEN + j * RECORD_LEN)


def _misread_kind(buffer):
    for message in range(3):
        _header(buffer, message)["kind"] = KIND_CODES["other"]


def _misread_unit(buffer):
    for message in range(3):
        _header(buffer, message)["unit"] = UNIT_CODES["dimensionless"]


def _misread_first_count(buffer):
    _header(buffer, 0)["count"] -= 1


def _misread_first_time(buffer):
    _record(buffer, 0)["t"] += 1


def _misread_middle_magic(buffer):
    _header(buffer, 1)["magic"] = b"IOHU"


def _misread_middle_version(buffer):
    _header(buffer, 1)["version"] = FORMAT_VERSION + 1


def _misread_middle_value(buffer):
    record = _record(buffer, 90)
    record["value"] = -record["value"]


def _misread_last_value(buffer):
    _record(buffer, 129)["value"] += 1.0


def _misread_last_count(buffer):
    _header(buffer, 2)["count"] += 1


def _misread_pad_byte(buffer):
    buffer[2 * WIDTH - 1] ^= 0x01


def _misread_reason_code_3(buffer):
    _record(buffer, 70)["reason"] = 3


@pytest.mark.parametrize("misread", [
    _misread_kind, _misread_unit, _misread_first_count, _misread_first_time,
    _misread_middle_magic, _misread_middle_version, _misread_middle_value,
    _misread_last_value, _misread_last_count, _misread_pad_byte, _misread_reason_code_3,
])
def test_transmit_rejects_what_the_edge_misreads(misread, monkeypatch):
    def corrupted(*args):
        buffer = bytearray(frame_records(*args))
        assert len(buffer) == 2 * WIDTH + HEADER_LEN + 10 * RECORD_LEN
        misread(buffer)
        return bytes(buffer)

    monkeypatch.setattr(pipeline, "frame_records", corrupted)
    trace = generate_trace(SyntheticSpec(n=130, seed=3, noise_scale=1.0))
    with pytest.raises(RuntimeError, match="edge-side records"):
        _transmit(trace, _full_transmission_set(130), make_config())


def test_transmit_rejects_an_unknown_reason_code_even_if_sent(monkeypatch):
    def with_code_3(*args):
        records = transmitted_records(*args)
        records["reason"][70] = 3
        return records

    monkeypatch.setattr(pipeline, "transmitted_records", with_code_3)
    trace = generate_trace(SyntheticSpec(n=130, seed=3, noise_scale=1.0))
    with pytest.raises(RuntimeError, match="unknown reason code"):
        _transmit(trace, _full_transmission_set(130), make_config())


# Two chunks of two messages, the second sent from `back` records before its
# own first: each chunk reads on its own and as sent, and t fails to rise
# only across the chunk edge, where it repeats (1) or goes back (120).
@pytest.mark.parametrize("back", [1, 120])
def test_transmit_rejects_t_that_does_not_increase_across_chunks(back, monkeypatch):
    def sent_again(trace, tx, start, stop):
        begin = max(start - back, 0)
        return transmitted_records(trace, tx, begin, begin + stop - start)

    monkeypatch.setattr(pipeline, "BLOCK_SAMPLES", 120)
    monkeypatch.setattr(pipeline, "transmitted_records", sent_again)
    trace = generate_trace(SyntheticSpec(n=240, seed=3, noise_scale=1.0))
    with pytest.raises(RuntimeError, match="records: message 0: t does not increase$"):
        _transmit(trace, _full_transmission_set(240), make_config())


@pytest.mark.parametrize("field", ["messages", "payload_bytes", "ciphertext_bytes"])
def test_transmit_checks_its_byte_counts_against_hop_log(field, monkeypatch):
    def off_by_one(*args):
        local, uplink = hop_log(*args)
        return local, replace(uplink, **{field: getattr(uplink, field) + 1})

    monkeypatch.setattr(pipeline, "hop_log", off_by_one)
    trace = generate_trace(SyntheticSpec(n=130, seed=3, noise_scale=1.0))
    with pytest.raises(RuntimeError, match="differ from hop_log"):
        _transmit(trace, _full_transmission_set(130), make_config())


def test_transmit_rejects_a_decryption_that_differs(monkeypatch):
    def flip_last_bit(*args):
        plaintext = decrypt(*args)
        return plaintext[:-1] + bytes([plaintext[-1] ^ 1])

    monkeypatch.setattr(pipeline, "decrypt", flip_last_bit)
    trace = generate_trace(SyntheticSpec(n=130, seed=3, noise_scale=1.0))
    with pytest.raises(RuntimeError, match="decryption mismatch"):
        _transmit(trace, _full_transmission_set(130), make_config())


class TestRunPipeline:
    def test_end_to_end_report(self):
        trace = generate_trace(SyntheticSpec(n=1420, seed=7, baseline=70,
                                             drift_amplitude=8, noise_scale=1.5))
        pop = generate_population(130, 5)
        report = run_pipeline(trace, make_config(), pop)
        assert report.inference_metrics.n == 1420
        assert 0 < report.inference_metrics.t < 1420
        assert report.energy_saving_percent > 0
        assert len(report.query_results) == 2
        hops = {h.hop: h for h in report.log}
        assert hops["gateway->edge"].ciphertext_bytes >= hops["gateway->edge"].payload_bytes

    def test_deterministic_machine_output(self):
        trace = generate_trace(SyntheticSpec(n=300, seed=3, noise_scale=1.0))
        pop = generate_population(50, 9)
        a = run_pipeline(trace, make_config(), pop).to_json()
        b = run_pipeline(trace, make_config(), pop).to_json()
        assert a == b

    def test_passthrough_configuration(self):
        # vr=0 on a strictly-varying trace sends everything; huge epsilon
        # leaves queries effectively exact
        trace = generate_trace(SyntheticSpec(n=100, seed=2, baseline=60,
                                             drift_amplitude=0, noise_scale=1.0))
        pop = generate_population(30, 4)
        config = make_config(
            inference=InferenceConfig(vr=0.0, beacon_period=None),
            dp=DpParams(epsilon=1e6, sensitivity=1.0),
        )
        report = run_pipeline(trace, config, pop)
        assert report.inference_metrics.t == 100
        assert report.energy_saving_percent == pytest.approx(0.0, abs=1e-9)
        for q in report.query_results:
            assert abs(q.noise) < 1e-3

    def test_constant_trace_beacons(self):
        trace = generate_trace(SyntheticSpec(n=100, seed=1, baseline=70,
                                             drift_amplitude=0, noise_scale=0))
        pop = generate_population(10, 1)
        config = make_config(inference=InferenceConfig(vr=0.01, beacon_period=10))
        report = run_pipeline(trace, config, pop)
        assert report.inference_metrics.t == 11
        assert report.energy_saving_percent > 80

    def test_energy_actual_monotone_in_vr(self):
        trace = generate_trace(SyntheticSpec(n=500, seed=6, noise_scale=2.0,
                                             drift_amplitude=5.0))
        pop = generate_population(10, 1)
        energies = []
        for vr in (0.0, 0.025, 0.05, 0.1):
            config = make_config(inference=InferenceConfig(vr=vr, beacon_period=60))
            energies.append(run_pipeline(trace, config, pop).energy_actual)
        assert energies == sorted(energies, reverse=True)

    def test_log_csv_shape(self):
        trace = generate_trace(SyntheticSpec(n=50, seed=1, noise_scale=1.0))
        pop = generate_population(10, 1)
        report = run_pipeline(trace, make_config(), pop)
        lines = report.log_csv().strip().splitlines()
        assert lines[0] == "hop,messages,payload_bytes,ciphertext_bytes"
        assert len(lines) == 3

    def test_report_json_is_valid(self):
        trace = generate_trace(SyntheticSpec(n=50, seed=1, noise_scale=1.0))
        pop = generate_population(10, 1)
        doc = json.loads(run_pipeline(trace, make_config(), pop).to_json())
        assert set(doc) == {
            "inference_metrics", "log", "energy_model", "energy_baseline_joules",
            "energy_actual_joules", "energy_saving_percent", "query_results",
        }

    @pytest.mark.parametrize("batch", [0, MAX_MESSAGE_RECORDS + 1, 10**20])
    def test_batch_beyond_a_header_count_rejected(self, batch):
        bound = re.escape(f"in [1, {MAX_MESSAGE_RECORDS}]")
        with pytest.raises(ValueError, match=f"^batch_samples must be {bound}, got {batch}$"):
            make_config(batch_samples=batch)
        assert make_config(batch_samples=MAX_MESSAGE_RECORDS).batch_samples == 2**32 - 1

    @pytest.mark.parametrize("batch", [True, np.int64(60)])
    def test_batch_of_any_integer_type_is_taken_as_int(self, batch):
        config = make_config(batch_samples=batch)
        assert type(config.batch_samples) is int and config.batch_samples == int(batch)

    def test_key_length_validated(self):
        with pytest.raises(ValueError, match="key"):
            make_config(key=b"short")

    def test_empty_trace_rejected(self):
        from ioht_pipeline.trace import Trace
        pop = generate_population(5, 1)
        with pytest.raises(ValueError):
            run_pipeline(Trace("heart-rate", "bpm", [], []), make_config(), pop)

    def test_empty_population_refused_before_tier_1(self, monkeypatch):
        def select_samples(trace, config):
            raise AssertionError("Tier 1 ran before the queries")

        monkeypatch.setattr(pipeline, "select_samples", select_samples)
        trace = generate_trace(SyntheticSpec(n=50, seed=1, noise_scale=1.0))
        with pytest.raises(ValueError, match="^mean query on an empty dataset$"):
            run_pipeline(trace, make_config(), generate_population(0, 1))
