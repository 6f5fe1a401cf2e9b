"""End-to-end pipeline: trace -> variance-rate filter -> wire format ->
encryption -> simulated hops -> decryption at the edge -> noisy queries,
with per-hop byte accounting and a linear transmit-energy model."""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

from .crypto import (
    HEADER_LEN,
    RECORD_LEN,
    CipherSuite,
    EcbContext,
    ciphertext_size,
    decrypt,
    encrypt,
    parse_payload,
    serialize_records,
    transmitted_records,
)
from .dp import DpParams, DpQuery, NoisedResult, derive_streams, noisy_query
from .inference import (
    InferenceConfig,
    InferenceMetrics,
    TransmissionSet,
    compute_metrics,
    reconstruct,
    select_samples,
)
from .trace import PersonRecord, Trace

HOP_SENSOR_GATEWAY = "sensor->gateway"
HOP_GATEWAY_EDGE = "gateway->edge"


@dataclass
class HopLog:
    hop: str
    messages: int = 0
    payload_bytes: int = 0
    ciphertext_bytes: int = 0  # 0 on unencrypted hops


@dataclass
class TransmissionLog:
    hops: list[HopLog] = field(default_factory=list)

    def hop(self, name: str) -> HopLog:
        for entry in self.hops:
            if entry.hop == name:
                return entry
        entry = HopLog(hop=name)
        self.hops.append(entry)
        return entry


@dataclass(frozen=True)
class EnergyModel:
    """Illustrative constants, not measured values; reports always echo them."""

    joules_per_byte_tx: float = 1e-6
    joules_per_message_overhead: float = 1e-4

    def __post_init__(self) -> None:
        if self.joules_per_byte_tx < 0 or self.joules_per_message_overhead < 0:
            raise ValueError("energy coefficients must be >= 0")


@dataclass(frozen=True)
class PipelineConfig:
    inference: InferenceConfig
    suite: CipherSuite
    key: bytes
    dp: DpParams
    queries: tuple[DpQuery, ...]
    batch_samples: int = 60
    master_seed: int = 0
    energy: EnergyModel = EnergyModel()

    def __post_init__(self) -> None:
        if self.batch_samples < 1:
            raise ValueError("batch_samples must be >= 1")
        if len(self.key) != self.suite.key_bits // 8:
            raise ValueError("key length does not match cipher suite")


@dataclass
class PipelineReport:
    inference_metrics: InferenceMetrics
    log: TransmissionLog
    energy_baseline: float
    energy_actual: float
    energy_saving_percent: float
    query_results: list[NoisedResult]
    energy_model: EnergyModel

    def to_dict(self) -> dict:
        return {
            "inference_metrics": asdict(self.inference_metrics),
            "log": [asdict(h) for h in self.log.hops],
            "energy_model": asdict(self.energy_model),
            "energy_baseline_joules": self.energy_baseline,
            "energy_actual_joules": self.energy_actual,
            "energy_saving_percent": self.energy_saving_percent,
            "query_results": [
                {
                    "real_result": q.real_result,
                    "noise": q.noise,
                    "out_result": q.out_result,
                    "epsilon": q.params.epsilon,
                    "sensitivity": q.params.sensitivity,
                }
                for q in self.query_results
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def log_csv(self) -> str:
        lines = ["hop,messages,payload_bytes,ciphertext_bytes"]
        for h in self.log.hops:
            lines.append(f"{h.hop},{h.messages},{h.payload_bytes},{h.ciphertext_bytes}")
        return "\n".join(lines) + "\n"


def energy_estimate(log: TransmissionLog, model: EnergyModel) -> float:
    """Linear model: bytes on the wire plus a per-message overhead.

    Encrypted hops are charged for ciphertext bytes, plain hops for payload
    bytes.
    """
    total = 0.0
    for hop in log.hops:
        wire_bytes = hop.ciphertext_bytes if hop.ciphertext_bytes > 0 else hop.payload_bytes
        total += wire_bytes * model.joules_per_byte_tx
        total += hop.messages * model.joules_per_message_overhead
    return total


def _transmit(
    trace: Trace,
    tx: TransmissionSet,
    config: PipelineConfig,
) -> TransmissionLog:
    """Run the selected records through both hops, verifying the edge-side
    decryption reproduces the transmitted records bit-exactly. One ECB
    context (one key schedule) serves every batch of the run."""
    records = transmitted_records(trace, tx)
    context = EcbContext(config.suite, config.key)
    log = TransmissionLog()
    local = log.hop(HOP_SENSOR_GATEWAY)
    uplink = log.hop(HOP_GATEWAY_EDGE)
    for start in range(0, max(len(records), 1), config.batch_samples):
        batch = records[start:start + config.batch_samples]
        payload = serialize_records(trace.kind, trace.unit, batch)
        # body-area hop: counted but not encrypted
        local.messages += 1
        local.payload_bytes += len(payload)
        encrypted = encrypt(payload, context)
        uplink.messages += 1
        uplink.payload_bytes += len(payload)
        uplink.ciphertext_bytes += len(encrypted.ciphertext)
        # edge side
        decrypted = decrypt(encrypted, context)
        if decrypted != payload:
            raise RuntimeError("decryption mismatch: cipher or codec bug")
        kind, unit, parsed = parse_payload(decrypted)
        if (kind, unit) != (trace.kind, trace.unit) or parsed.tobytes() != batch.tobytes():
            raise RuntimeError("edge-side records differ from transmitted records")
    return log


def _unfiltered_log(n: int, config: PipelineConfig) -> TransmissionLog:
    """The log `_transmit` writes when all n samples are sent, computed from
    the wire-format and padding sizes without encrypting anything."""
    full, rest = divmod(n, config.batch_samples)
    last = 1 if rest or not full else 0  # an empty trace still sends one header
    batches = ((config.batch_samples, full), (rest, last))  # (records, batch count)
    messages = full + last
    payload_bytes = sum(count * (HEADER_LEN + k * RECORD_LEN) for k, count in batches)
    ciphertext_bytes = sum(
        count * ciphertext_size(HEADER_LEN + k * RECORD_LEN, config.suite)
        for k, count in batches
    )
    return TransmissionLog(hops=[
        HopLog(HOP_SENSOR_GATEWAY, messages, payload_bytes),
        HopLog(HOP_GATEWAY_EDGE, messages, payload_bytes, ciphertext_bytes),
    ])


def run_pipeline(
    trace: Trace,
    config: PipelineConfig,
    dataset: Sequence[PersonRecord],
) -> PipelineReport:
    """Execute both tiers deterministically and assemble the report."""
    if len(trace) < 1:
        raise ValueError("pipeline requires a non-empty trace")
    tx = select_samples(trace, config.inference)
    log = _transmit(trace, tx, config)
    recon = reconstruct(trace, tx, config.inference.recon_mode)
    metrics = compute_metrics(trace, tx, recon)

    # Baseline sends all N samples through the identical wire format and
    # cipher, so the savings isolate the filter's effect.
    energy_actual = energy_estimate(log, config.energy)
    energy_baseline = energy_estimate(_unfiltered_log(len(trace), config), config.energy)
    saving = (
        100.0 * (energy_baseline - energy_actual) / energy_baseline
        if energy_baseline > 0
        else 0.0
    )

    streams = derive_streams(config.master_seed, len(config.queries))
    results = [
        noisy_query(dataset, query, config.dp, stream)
        for query, stream in zip(config.queries, streams)
    ]
    return PipelineReport(
        inference_metrics=metrics,
        log=log,
        energy_baseline=energy_baseline,
        energy_actual=energy_actual,
        energy_saving_percent=saving,
        query_results=results,
        energy_model=config.energy,
    )
