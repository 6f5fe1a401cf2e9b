import json

import pytest

from ioht_pipeline import pipeline
from ioht_pipeline.crypto import SUITES
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
    TransmissionLog,
    _transmit,
    _unfiltered_log,
    energy_estimate,
    run_pipeline,
)
from ioht_pipeline.trace import SyntheticSpec, generate_population, generate_trace

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
        assert energy_estimate(TransmissionLog(), EnergyModel()) == 0.0

    def test_linear_arithmetic(self):
        log = TransmissionLog(hops=[HopLog("sensor->gateway", messages=1, payload_bytes=100)])
        model = EnergyModel(joules_per_byte_tx=1e-6, joules_per_message_overhead=1e-4)
        assert energy_estimate(log, model) == pytest.approx(2.0e-4)

    def test_doubling_bytes_doubles_byte_term(self):
        model = EnergyModel(joules_per_byte_tx=1e-6, joules_per_message_overhead=0.0)
        one = TransmissionLog(hops=[HopLog("h", messages=1, payload_bytes=100)])
        two = TransmissionLog(hops=[HopLog("h", messages=1, payload_bytes=200)])
        assert energy_estimate(two, model) == pytest.approx(2 * energy_estimate(one, model))

    def test_encrypted_hop_charged_for_ciphertext(self):
        log = TransmissionLog(hops=[
            HopLog("gateway->edge", messages=1, payload_bytes=100, ciphertext_bytes=112),
        ])
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
@pytest.mark.parametrize("batch", [1, 7, 60])
@pytest.mark.parametrize("n", [0, 1, 59, 60, 61, 1420])
def test_unfiltered_log_matches_a_real_transmission(n, batch, suite):
    trace = generate_trace(SyntheticSpec(n=n, seed=n, noise_scale=1.0))
    config = make_config(suite=SUITES[suite], key=SUITE_KEYS[suite], batch_samples=batch)
    assert _unfiltered_log(n, config) == _transmit(trace, _full_transmission_set(n), config)


def _misread_kind(kind, unit, records):
    return "other", unit, records


def _misread_unit(kind, unit, records):
    return kind, "dimensionless", records


def _misread_last_value(kind, unit, records):
    records = records.copy()
    records["value"][-1] += 1.0
    return kind, unit, records


@pytest.mark.parametrize("misread", [_misread_kind, _misread_unit, _misread_last_value])
def test_transmit_rejects_what_the_edge_misreads(misread, monkeypatch):
    real_parse = pipeline.parse_payload
    monkeypatch.setattr(pipeline, "parse_payload", lambda data: misread(*real_parse(data)))
    trace = generate_trace(SyntheticSpec(n=130, seed=3, noise_scale=1.0))
    with pytest.raises(RuntimeError, match="edge-side records differ"):
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
        hops = {h.hop: h for h in report.log.hops}
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

    def test_key_length_validated(self):
        with pytest.raises(ValueError, match="key"):
            make_config(key=b"short")

    def test_empty_trace_rejected(self):
        from ioht_pipeline.trace import Trace
        pop = generate_population(5, 1)
        with pytest.raises(ValueError):
            run_pipeline(Trace("heart-rate", "bpm", [], []), make_config(), pop)
