"""End-to-end pipeline: trace -> variance-rate filter -> wire format ->
encryption -> simulated hops -> decryption at the edge -> noisy queries,
with per-hop byte accounting and a linear transmit-energy model."""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .crypto import (
    FORMAT_VERSION,
    HEADER_LEN,
    MAGIC,
    RECORD_LEN,
    CipherSuite,
    EcbContext,
    ciphertext_size,
    decrypt,
    encrypt,
    frame_records,
    read_frames,
    transmitted_records,
)
from .dp import DpParams, DpQuery, NoisedResult, derive_streams, noisy_query
from .inference import (
    REASON_NAMES,
    InferenceConfig,
    InferenceMetrics,
    TransmissionSet,
    compute_metrics,
    reconstruct,
    select_samples,
)
from .trace import KIND_CODES, UNIT_CODES, PersonRecord, Trace

HOP_SENSOR_GATEWAY = "sensor->gateway"
HOP_GATEWAY_EDGE = "gateway->edge"


@dataclass(frozen=True)
class HopLog:
    hop: str
    messages: int = 0
    payload_bytes: int = 0
    ciphertext_bytes: int = 0  # 0 on unencrypted hops


@dataclass(frozen=True)
class TransmissionLog:
    hops: tuple[HopLog, ...] = ()


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


def hop_log(record_count: int, batch: int, suite: CipherSuite) -> TransmissionLog:
    """The log of sending `record_count` records, `batch` to a message, from
    the wire-format and padding sizes alone. `_transmit` checks the bytes it
    really sends against it, and the unfiltered baseline is `hop_log(n, ...)`."""
    full, rest = divmod(record_count, batch)
    last = 1 if rest or not full else 0  # no records still sends one header
    sizes = ((HEADER_LEN + batch * RECORD_LEN, full), (HEADER_LEN + rest * RECORD_LEN, last))
    messages = full + last
    payload_bytes = sum(count * size for size, count in sizes)
    ciphertext_bytes = sum(count * ciphertext_size(size, suite) for size, count in sizes)
    return TransmissionLog(hops=(
        HopLog(HOP_SENSOR_GATEWAY, messages, payload_bytes),
        HopLog(HOP_GATEWAY_EDGE, messages, payload_bytes, ciphertext_bytes),
    ))


def _transmit(
    trace: Trace,
    tx: TransmissionSet,
    config: PipelineConfig,
) -> TransmissionLog:
    """Run the selected records through both hops and check at the edge that
    every message comes back bit-exactly; return `hop_log` of the records.

    Every message of the run is laid end to end in one buffer
    (`frame_records`), enciphered by one `encrypt` call and deciphered by one
    `decrypt` call under one `EcbContext`. Because ECB carries no state
    between blocks and every message is whole blocks once padded, that is
    byte for byte what a call per message would send. The edge reads the
    buffer back with `read_frames` and checks each message's header columns,
    pad bytes, reason codes and records with whole-column comparisons.
    Raises RuntimeError if anything read at the edge differs from what was
    sent, or if the byte counts sent differ from `hop_log`.
    """
    records = transmitted_records(trace, tx)
    batch, suite = config.batch_samples, config.suite
    log = hop_log(len(records), batch, suite)
    sent = frame_records(trace.kind, trace.unit, records, batch, suite)
    context = EcbContext(suite, config.key)
    encrypted = encrypt(sent, context)
    # edge side
    decrypted = decrypt(encrypted, context)
    if decrypted != sent:
        raise RuntimeError("decryption mismatch: cipher or codec bug")
    headers, received, pads = read_frames(decrypted, batch, suite)
    counts = np.full(len(headers), batch)  # a short last message holds the rest
    counts[len(records) // batch:] = len(records) % batch
    if not (np.all(headers["magic"] == MAGIC) and np.all(headers["version"] == FORMAT_VERSION)
            and np.all(headers["kind"] == KIND_CODES[trace.kind])
            and np.all(headers["unit"] == UNIT_CODES[trace.unit])
            and np.array_equal(headers["count"], counts)
            and np.all(pads == pads.shape[1])
            and received.tobytes() == records.tobytes()):
        raise RuntimeError("edge-side records differ from transmitted records")
    if not np.all(received["reason"] < len(REASON_NAMES)):
        raise RuntimeError("edge-side records hold an unknown reason code")
    uplink = log.hops[1]
    sent_counts = (len(headers), len(sent) - pads.size, len(encrypted.ciphertext))
    if sent_counts != (uplink.messages, uplink.payload_bytes, uplink.ciphertext_bytes):
        raise RuntimeError(f"sent (messages, payload, ciphertext bytes) {sent_counts} "
                           f"differ from hop_log's")
    return log


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
    energy_baseline = energy_estimate(
        hop_log(len(trace), config.batch_samples, config.suite), config.energy)
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
